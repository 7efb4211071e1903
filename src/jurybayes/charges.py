"""Finitely additive probability charges with exact rational values.

A charge lives on a Boolean subalgebra (see worlds.BooleanSubalgebra) and
is stored as one nonnegative Fraction per atom, summing to one.  The
value of a member is the sum of its atoms' masses.  Conditioning,
mixing, and the two extension constructions (prescribing the value of a
new event, and prescribing a conditional value) are all exact: every
stated equality holds as rational equality, never within a tolerance.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import AbstractSet, Iterable, Sequence

from .errors import (
    AlgebraMismatch,
    DegeneratePrior,
    InvariantViolation,
    NotExpressible,
    NotIndependent,
    OutOfRange,
    ZeroConditioningEvent,
)
from .rationals import ONE, ZERO, Frozen, RationalLike, _unit_in, as_rational, format_rational
from .worlds import BooleanSubalgebra


class ConditionalResult(Frozen):
    """A conditional probability together with the conditioning mass."""

    value: Fraction
    conditioning_mass: Fraction

    def __init__(self, value: Fraction, conditioning_mass: Fraction) -> None:
        vars(self).update(value=value, conditioning_mass=conditioning_mass)
        if conditioning_mass <= 0:
            raise ZeroConditioningEvent(
                "conditional probability undefined: conditioning event has mass "
                f"{conditioning_mass}"
            )


class Charge(Frozen):
    """An exact finitely additive probability charge on a subalgebra.

    ``masses`` is aligned with ``algebra.atoms`` and kept as a tuple.
    Atom masses may be zero; they must be Fractions, nonnegative, and sum
    to exactly one.  Both builders, the constructor and ``_from_codes``,
    run the one check ``_check_masses``: in C, one type pass and one sign
    test over the masses' integer pairs, and then the one integer sum that
    ``fraction_sum`` also runs.  Only when the type or sign test fails are
    the masses walked in order, so the first bad mass names the error.

    ``values`` and ``codes`` view the same masses coded, so that
    ``masses[i] is values[codes[i]]``, and both builders write them with
    the masses.  The constructor writes a charge's own masses as its
    values and ``range(len(masses))`` as its codes.  ``_from_codes``
    keeps a builder's few values and their codes, and checks each value
    the codes name once, weighted by its count; readers of the view then
    decide each of those values once.
    """

    algebra: BooleanSubalgebra
    masses: tuple[Fraction, ...]

    def __init__(self, algebra: BooleanSubalgebra, masses: tuple[Fraction, ...]) -> None:
        # the very tuple, when given one; a list would stay the caller's to change
        masses = tuple(masses)
        vars(self).update(algebra=algebra, masses=masses, values=masses, codes=range(len(masses)))
        _check_masses(algebra, masses, masses)

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_codes(cls, algebra, values, codes) -> "Charge":
        """The charge whose atom i has mass ``values[codes[i]]``, its masses built in C.

        ``codes`` is a tuple or bytes, and is kept as the charge's codes.
        ``_check_masses`` checks each value the codes name once, weighted
        by its count, and a value no atom names not at all; it raises what
        the constructor would raise for these masses.
        """
        values = list(values)  # a list's __getitem__ maps fastest
        masses = tuple(map(values.__getitem__, codes))
        tally = Counter(codes)
        _check_masses(algebra, masses, list(map(values.__getitem__, tally)), tally.values())
        charge = cls.__new__(cls)
        vars(charge).update(algebra=algebra, masses=masses, values=tuple(values), codes=codes)
        return charge

    # -- measurement ---------------------------------------------------

    def measure(self, event: AbstractSet) -> Fraction:
        """Probability of an event expressible in the algebra.

        The algebra's ``cover`` names the atoms inside the event, whose
        masses are summed, and the atoms it cuts: any such atom raises
        NotExpressible.  A coded charge (see ``_from_codes``) counts the
        codes of the atoms inside and sums each value they name once,
        times its count.
        """
        inside = self._inside(event)
        codes = self.codes
        if type(codes) is range:  # a tuple-built charge: each mass is its own value
            return fraction_sum(map(self.masses.__getitem__, inside))
        tally = Counter(map(list(codes).__getitem__, inside))  # a list maps fastest
        return fraction_sum(map(self.values.__getitem__, tally), tally.values())

    def _inside(self, event: AbstractSet) -> Iterable[int]:
        """The indices of the atoms inside an event; NotExpressible unless it is their union."""
        event = frozenset(event)
        if not event <= self.algebra.ground_set:
            raise NotExpressible("event contains elements outside the ground set")
        inside, cut = self.algebra.cover(event)
        if cut:
            raise NotExpressible("event is not a union of atoms (it cuts through an atom)")
        return inside

    def conditional(self, target: AbstractSet, given: AbstractSet) -> ConditionalResult:
        """P(target | given) with the conditioning mass attached."""
        given = frozenset(given)
        denom = self.measure(given)
        if denom == 0:
            raise ZeroConditioningEvent("conditioning event has measure zero")
        num = self.measure(frozenset(target) & given)
        return ConditionalResult(num / denom, denom)

    def condition(self, event: AbstractSet) -> "Charge":
        """The posterior charge given an event of positive measure.

        One ``cover`` call names the atoms inside the event, and their
        masses are divided by their sum.
        """
        inside = self._inside(event)
        denom = fraction_sum(map(self.masses.__getitem__, inside))
        if denom == 0:
            raise ZeroConditioningEvent("conditioning event has measure zero")
        new = [ZERO] * len(self.masses)
        for i in inside:
            new[i] = self.masses[i] / denom
        return Charge(self.algebra, tuple(new))

    # -- extension -----------------------------------------------------

    def inner_outer(self, subset: AbstractSet) -> tuple[Fraction, Fraction]:
        """Inner and outer measure of an arbitrary subset of the ground set.

        The inner measure is the mass of atoms fully inside the subset;
        the outer measure is the mass of atoms meeting it.  A prescribed
        value for the subset extends the charge iff it lies in
        [inner, outer].
        """
        subset = frozenset(subset)
        if not subset <= self.algebra.ground_set:
            raise ValueError("subset contains elements outside the ground set")
        inside, cut = self.algebra.cover(subset)
        inner = fraction_sum(map(self.masses.__getitem__, inside))
        return inner, inner + fraction_sum(map(self.masses.__getitem__, cut))

    def extend(self, subset: AbstractSet, value: RationalLike) -> "Charge":
        """Extend to the algebra adjoining ``subset`` with the given value.

        The restriction to the original algebra is preserved exactly.
        Mass is split greedily in canonical atom order: each atom's
        inside-part is filled to its ceiling until the target is met.
        """
        subset = frozenset(subset)
        value = as_rational(value, name="target value")
        if not subset <= self.algebra.ground_set:
            raise ValueError("subset contains elements outside the ground set")

        def targets(inner: Fraction, _in_e: Fraction, outer: Fraction, _out_e: Fraction):
            if not inner <= value <= outer:
                raise OutOfRange(
                    f"target {format_rational(value)} outside the admissible interval "
                    f"[{format_rational(inner)}, {format_rational(outer)}]"
                )
            return value - inner, ZERO

        return self._split_extend(*self.algebra.split(subset), frozenset(), targets)

    def extend_conditional(
        self,
        event: AbstractSet,
        given: AbstractSet,
        theta: RationalLike,
        *,
        strict: bool = True,
    ) -> "Charge":
        """Extend by adjoining ``given`` so that P(event | given) = theta.

        ``event`` must already be expressible.  In strict mode (the
        default), ``given`` must split every positive-mass atom and the
        prior value of ``event`` must avoid {0, 1}; every theta in
        [0, 1] is then attainable.  With strict=False the construction
        also accepts refinements of the algebra (e.g. nested conditioning
        chains) and raises OutOfRange when theta falls outside the
        exactly-computed feasible interval.

        A conditional extension is one plain extension on each side of
        the target event: ``given ∩ event`` gets exactly theta*s and
        ``given − event`` (1−theta)*s, where s is the mass ``given``
        receives; the original charge is kept on every old member.  One
        split of the atoms by ``given`` serves both sides.  Each side
        bounds s by one rule: a side of share w > 0 (theta or 1-theta)
        needs w*s between its forced (inner) and reachable (outer) mass,
        and a side of share 0 may carry no forced mass.  s is the
        midpoint of the one interval both sides allow, which in the
        strict case is min(P(A)/theta, (1-P(A))/(1-theta)) / 2.
        """
        event = frozenset(event)
        given = frozenset(given)
        theta = _unit_in(theta, "theta", "conditional target")
        if not given <= self.algebra.ground_set:
            raise ValueError("adjoined event contains elements outside the ground set")
        p_event = self.measure(event)  # raises NotExpressible if event is foreign
        algebra, parts = self.algebra.split(given)

        if strict:
            if p_event in (ZERO, ONE):
                raise DegeneratePrior(
                    f"prior value of the event is {format_rational(p_event)}; "
                    "a conditional target needs it strictly between 0 and 1"
                )
            # ``given`` must cut every positive-mass atom
            if not all(i and o for (i, o), m in zip(parts, self.masses) if m):
                detail = ""
                if not given:
                    detail = " (the adjoined event is empty)"
                elif given == self.algebra.ground_set:
                    detail = " (the adjoined event is the whole ground set)"
                raise NotIndependent(
                    "adjoined event must split every positive-mass atom"
                    f"{detail}; use strict=False for refinement-only extensions"
                )

        def targets(in_c: Fraction, in_e: Fraction, out_c: Fraction, out_e: Fraction):
            # s <= out_e + out_c <= 1 on a probability charge, so hi may start at 1
            lo, hi = ZERO, ONE
            sides = ((theta, in_e, out_e, "inside"), (1 - theta, in_c, out_c, "outside"))
            for share, inner, outer, where in sides:
                if share:
                    lo, hi = max(lo, inner / share), min(hi, outer / share)
                elif inner:
                    raise OutOfRange(
                        f"conditional target {format_rational(theta)} unattainable: the "
                        f"adjoined event already carries forced mass {where} the target event"
                    )
            if lo > hi:
                lo_bound = in_e / (in_e + out_c) if in_e + out_c > 0 else ONE
                hi_bound = out_e / (out_e + in_c) if out_e + in_c > 0 else ZERO
                raise OutOfRange(
                    f"conditional target {format_rational(theta)} outside the feasible "
                    f"interval [{format_rational(lo_bound)}, {format_rational(hi_bound)}]"
                )
            scale = (lo + hi) / 2
            if scale == 0:
                raise OutOfRange(
                    "the adjoined event cannot receive positive mass, so no "
                    "conditional value is defined on it"
                )
            return (1 - theta) * scale - in_c, theta * scale - in_e

        return self._split_extend(algebra, parts, event, targets)

    def _split_extend(self, algebra, parts, event: frozenset, targets) -> "Charge":
        """The extension onto ``algebra``, split from this one as ``parts`` say.

        ``targets`` maps the adjoined set's inner masses outside and inside
        ``event``, then its outer ones, to what the cut atoms on each side give.
        """
        # 0 outside the event, 1 inside; one element tells, as it is a union of atoms
        sides = [next(iter(inside or outside)) in event for inside, outside in parts]
        forced, reachable, cut = ([], []), ([], []), ([], [])
        for (inside, outside), m, side in zip(parts, self.masses, sides):
            if inside:
                reachable[side].append(m)
                (cut if outside else forced)[side].append(m)
        target_c, target_e = targets(*map(fraction_sum, (*forced, *reachable)))
        event_fill = iter(greedy_fill(cut[1], target_e))  # the event side fills first
        fills = iter(greedy_fill(cut[0], target_c)), event_fill
        # The child's atoms are the very part objects, so masses go by identity.
        mass: dict[int, Fraction] = {}
        for (inside, outside), m, side in zip(parts, self.masses, sides):
            if inside and outside:
                mass[id(inside)], mass[id(outside)] = next(fills[side])
            else:
                mass[id(inside or outside)] = m
        return Charge(algebra, tuple(mass[id(atom)] for atom in algebra.atoms))


def _check_masses(algebra, masses: tuple, named: Sequence, counts: Iterable[int] | None = None) -> None:
    """TypeError or ValueError unless ``masses`` are a probability on the algebra's atoms.

    ``named`` holds the masses to check: all of ``masses``, or with
    ``counts`` each distinct value once and how many atoms it weighs.
    Each named value's integer pair is read once: one ``min`` over the
    pairs tests the signs, and ``_ratio_sum`` totals them.  Only a type
    or sign failure walks ``masses``, for the first bad one.
    """
    if len(masses) != algebra.atom_count:
        raise ValueError(f"{len(masses)} masses for {algebra.atom_count} atoms")
    if not all(map(isinstance, named, repeat(Fraction))):
        _reject_first_bad_mass(masses)
    ratios = list(map(Fraction.as_integer_ratio, named))
    if min(ratios, default=(0,))[0] < 0:  # the least numerator leads the least pair
        _reject_first_bad_mass(masses)
    total = _ratio_sum(ratios, counts)
    if total != 1:
        raise ValueError(f"atom masses must sum to 1, got {format_rational(total)}")


def _reject_first_bad_mass(masses: Iterable[object]) -> None:
    """TypeError or ValueError for the first mass, in order, that is not a nonnegative Fraction."""
    for m in masses:
        if not isinstance(m, Fraction):
            raise TypeError(f"atom mass must be Fraction, got {type(m).__name__}")
        if m.numerator < 0:
            raise ValueError(f"atom mass must be nonnegative, got {m}")


def fraction_sum(values: Iterable[Fraction], counts: Iterable[int] | None = None) -> Fraction:
    """Exact sum of Fractions, each times its count if ``counts`` is given."""
    return _ratio_sum(map(Fraction.as_integer_ratio, values), counts)


def _ratio_sum(ratios: Iterable[tuple[int, int]], counts: Iterable[int] | None = None) -> Fraction:
    """The exact sum of n/d over the (n, d) pairs, each times its count if ``counts`` is given.

    One Fraction is built, at the end: numerators are added per
    denominator as ints, and the distinct denominators are merged on ints
    over their running lcm.
    """
    if counts is not None:
        ratios = [(n * count, d) for (n, d), count in zip(ratios, counts)]
    numerators: dict[int, int] = {}
    for n, d in ratios:
        numerators[d] = numerators.get(d, 0) + n
    num, den = 0, 1
    for d, n in numerators.items():
        g = gcd(den, d)
        num, den = num * (d // g) + n * (den // g), den // g * d
    return Fraction(num, den)


def greedy_fill(masses: Iterable[Fraction], target: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Split masses in order, each inside part taking what it can of the rest of ``target``.

    Returns the (inside, outside) pairs.  InvariantViolation if part of the
    target is left over, which the callers' interval checks rule out.
    """
    residual, split = target, []
    for m in masses:
        take = min(residual, m) if residual else ZERO
        if take:  # no arithmetic once the target is met
            residual -= take
        split.append((take, m - take if take else m))
    if residual != 0:
        raise InvariantViolation(
            f"greedy split left {format_rational(residual)} of its target unplaced"
        )
    return split


def mix(alpha: RationalLike, first: Charge, second: Charge) -> Charge:
    """The convex combination alpha*first + (1-alpha)*second."""
    alpha = _unit_in(alpha, "alpha", "mixture weight")
    # identity first: equality reads ``atoms``, which an algebra built by rule
    # would build only to be compared
    if first.algebra is not second.algebra and first.algebra != second.algebra:
        raise AlgebraMismatch("mixture requires both charges on the same algebra")
    masses = tuple(
        alpha * a + (1 - alpha) * b for a, b in zip(first.masses, second.masses)
    )
    return Charge(first.algebra, masses)
