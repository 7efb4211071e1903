"""Helpers shared by the workloads: seeded rationals, world indices, and
exact charge arithmetic done with plain sets, independent of the
package's own ``measure``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

HALF = Fraction(1, 2)


@dataclass
class Outcome:
    """Result of checking one request: pass/fail, a canonical rendering of
    its output (compared between traced and untraced runs), and sizes."""

    problems: list[str]
    output: str
    worlds: int = 0
    atoms: int = 0
    den_bits: int = 0
    rss_kib: int = 0  # peak memory of the request's own process, when it has one

    @property
    def ok(self) -> bool:
        return not self.problems


def fmt(value: Fraction) -> str:
    """Canonical rational text: "p/q", or "p" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational(rng: random.Random, low: Fraction, high: Fraction, *,
             open_low: bool = True, open_high: bool = True, max_den: int = 40) -> Fraction:
    """A seeded rational in the interval with denominator at most max_den."""
    while True:
        den = rng.randrange(2, max_den + 1)
        value = Fraction(rng.randrange(0, den + 1), den)
        if (low < value if open_low else low <= value) and (
            value < high if open_high else value <= high
        ):
            return value


def den_bits(masses: Iterable[Fraction]) -> int:
    return max((m.denominator.bit_length() for m in masses), default=0)


# ---------------------------------------------------------------------------
# World indices.  The package orders worlds by (transcript mask, guilty
# first), so world ``2 * mask + g`` is guilty when ``g == 0``.


def labels_for(n: int) -> tuple[str, ...]:
    return tuple(f"t{i + 1}" for i in range(n))


def guilt_indices(n: int) -> frozenset[int]:
    return frozenset(range(0, 2 << n, 2))


def heard_indices(n: int, testimony: int) -> frozenset[int]:
    return frozenset(i for i in range(2 << n) if (i >> 1) >> testimony & 1)


def cells(universe: Sequence[int], generators: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Sign-pattern partition, cells ordered by their least element."""
    by_sign: dict[tuple[bool, ...], set[int]] = {}
    for element in universe:
        by_sign.setdefault(tuple(element in g for g in generators), set()).add(element)
    return sorted((frozenset(c) for c in by_sign.values()), key=min)


def split_cells(partition: Sequence[frozenset[int]], subset: frozenset[int]) -> list[frozenset[int]]:
    out: list[frozenset[int]] = []
    for cell in partition:
        out += [part for part in (cell & subset, cell - subset) if part]
    return sorted(out, key=min)


def balanced_split(rng: random.Random, partition: Sequence[frozenset[int]]) -> frozenset[int]:
    """Half of every cell, so the set splits each cell of two or more."""
    picked: set[int] = set()
    for cell in partition:
        picked.update(rng.sample(sorted(cell), len(cell) // 2))
    return frozenset(picked)


def positive_weights(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    weights = [rng.randrange(1, 10) for _ in range(count)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def proper_union(rng: random.Random, partition: Sequence[frozenset[int]]) -> frozenset[int]:
    """Union of a random nonempty proper subfamily of the cells."""
    chosen = rng.sample(range(len(partition)), rng.randrange(1, len(partition)))
    return frozenset().union(*(partition[i] for i in chosen))


# ---------------------------------------------------------------------------
# Exact sums over atom partitions (atoms are frozensets of anything).


def mass_of(atoms: Sequence[frozenset], masses: Sequence[Fraction], event: frozenset) -> Fraction:
    """Mass of an event that must be a union of atoms."""
    total = Fraction(0)
    for atom, mass in zip(atoms, masses):
        if atom <= event:
            total += mass
        elif not atom.isdisjoint(event):
            raise ValueError("event cuts through an atom")
    return total


def inner_outer(atoms: Sequence[frozenset], masses: Sequence[Fraction],
                subset: frozenset) -> tuple[Fraction, Fraction]:
    inner = sum((m for a, m in zip(atoms, masses) if a <= subset), Fraction(0))
    outer = sum((m for a, m in zip(atoms, masses) if not a.isdisjoint(subset)), Fraction(0))
    return inner, outer


def refinement_problems(old_atoms: Sequence[frozenset], old_masses: Sequence[Fraction],
                        new_atoms: Sequence[frozenset], new_masses: Sequence[Fraction]) -> list[str]:
    """The new charge must refine the old partition and keep each old atom's mass."""
    problems: list[str] = []
    if sum(new_masses) != 1 or any(m < 0 for m in new_masses):
        problems.append("masses are not a probability")
    for atom in new_atoms:
        if not any(atom <= old for old in old_atoms):
            problems.append("a new atom straddles old atoms")
            break
    for old, mass in zip(old_atoms, old_masses):
        kept = sum((m for a, m in zip(new_atoms, new_masses) if a <= old), Fraction(0))
        if kept != mass:
            problems.append(f"old atom mass {fmt(mass)} became {fmt(kept)}")
            break
    return problems
