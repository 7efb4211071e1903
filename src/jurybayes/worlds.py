"""Finite trial world spaces and Boolean subalgebra machinery.

A catalog fixes the ordered set of possible testimonies.  A transcript is
the subset of testimonies a juror perceives; a world pairs a transcript
with a material-guilt value.  Every transcript is paired with *both*
guilt values, so hearing testimony never deductively settles guilt.

All values here are immutable and hashable; operations are pure.
"""

from __future__ import annotations

import enum
import itertools
from functools import cached_property, lru_cache, partial, reduce
from operator import attrgetter
from typing import AbstractSet, Hashable, Iterable, Iterator, Sequence

from .errors import CapExceeded, CatalogMismatch, ForeignTestimony, NotExpressible
from .rationals import ZERO, Frozen

#: Default ceiling on catalog size.  The world space has 2^(n+1) elements
#: and every construction in this package is exponential in n.
DEFAULT_WORLD_CAP = 12

#: Largest world cap any catalog may be given.  Library ``rationalize``
#: followed by ``verify_rationalization`` peaks at about 0.30 kB per world
#: (two-witness disposition, n=16: 39 MB for 131072 worlds on CPython
#: 3.11, as ``world_algebra`` builds no atom it is not asked for), so this
#: ceiling bounds that path at 2^21 worlds and about 0.6 GB.  The figure
#: covers the library path only: at n=18 the CLI's ``rationalize --out``
#: peaked at 828 MB and ``verify`` of its certificate at 592 MB (each
#: process's own ``ru_maxrss``).  A cap above the ceiling is refused
#: before any world is built.  Testimony indices stay below it, so no
#: transcript outgrows every catalog.
WORLD_CAP_CEILING = 20


class Guilt(enum.Enum):
    """Material guilt value of the defendant."""

    GUILTY = "G"
    INNOCENT = "I"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Guilt.{self.name}"


# The integer encoding.  A transcript is its testimony bitmask (bit i set
# iff catalog index i was perceived) and a world is the int 2*mask + g,
# with g = 0 when guilty and 1 when innocent.  Both are int subclasses
# without Python-level __hash__/__eq__, so world-space sets hash in C and
# canonical order (transcripts in binary counting order, guilty before
# innocent) is integer order.  A set of worlds fixed by the low bits of
# the code is then a stride slice of the world tuple, which is how
# heard_prefix_algebra reads the layers of a testimony prefix's
# heard-events.  Only this module reads world_algebra's is_world_powerset
# flag: require_world_ground and three readers answer a world powerset from
# the world codes, its atom i being the world with code i
# (BooleanSubalgebra.cover, transcript_masses and atom_names).  Two other
# modules rely on the layout itself: dispositions.rationalize translates
# Disposition.flags, one byte per transcript mask, into the guilty and
# innocent codes of world_algebra's atoms, and serialize's key table lists
# the world keys in world-code order, by which charge_from_jsonable's
# masses index world_algebra's atoms and serialize's one world-key reader,
# _worlds_of_keys, indexes the world tuple that the key table holds.
#
# Four builders skip the partition check, all through the one unchecked
# constructor BooleanSubalgebra._unchecked: world_algebra, whose singleton
# atoms are the cached world tuple's worlds one by one; heard_prefix_algebra,
# whose layers and tail hold every world exactly once (by the lowest clear
# bit of its mask); atoms_of_generated_algebra's start, whose one atom is
# the whole ground set; and BooleanSubalgebra.split, the one pass that
# adjoins a set, since splitting every block of a partition by one set
# leaves a partition.  The public constructor always checks, and no other
# module builds an algebra unchecked: serialize reads a coarse charge's
# atoms through it.  The first two store only their atom count and the
# rule their atoms follow, and build the atom frozensets on the first read
# of ``atoms``, once per algebra object.  On the cached world tuple every
# builder shares the cached world set as its ground set (_ground_set_of)
# rather than copying it, and an element's position is its world code, so
# an atom's sort key is its least world.  The world tuple is recognised by
# its length, 2^(n+1), and then by identity with the cached tuple of that
# n, so a ground of any other size builds no world space.


class Transcript(int):
    """A set of perceived testimonies, stored as catalog indices."""

    __slots__ = ()

    def __new__(cls, members: Iterable[int] = ()) -> "Transcript":
        mask = 0
        for index in members:
            _require_int(index, "a testimony index")
            if not 0 <= index < WORLD_CAP_CEILING:
                raise ForeignTestimony(
                    f"testimony index {index} is outside every catalog "
                    f"(indices run from 0 to {WORLD_CAP_CEILING - 1})"
                )
            mask |= 1 << index
        return super().__new__(cls, mask)

    def __getnewargs__(self) -> tuple[frozenset[int]]:
        return (self.members,)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(i for i in range(self.bit_length()) if (self >> i) & 1)

    @property
    def mask(self) -> int:
        """Bitmask encoding; the canonical sort key for transcripts."""
        return int(self)

    def __contains__(self, index: object) -> bool:
        return isinstance(index, int) and index >= 0 and (self >> index) & 1 == 1

    def __len__(self) -> int:
        return self.bit_count()

    def __repr__(self) -> str:
        inner = ",".join(str(i) for i in sorted(self.members))
        return f"Transcript({{{inner}}})"


class World(int):
    """A pair of a transcript and a guilt value."""

    __slots__ = ()

    def __new__(cls, transcript: Transcript, guilt: Guilt) -> "World":
        if not isinstance(transcript, Transcript) or not isinstance(guilt, Guilt):
            raise TypeError("a world pairs a Transcript with a Guilt value")
        return super().__new__(cls, 2 * transcript + (guilt is Guilt.INNOCENT))

    def __getnewargs__(self) -> tuple[Transcript, Guilt]:
        return (self.transcript, self.guilt)

    @property
    def transcript(self) -> Transcript:
        return _transcript_of_mask(self >> 1)

    @property
    def guilt(self) -> Guilt:
        return Guilt.INNOCENT if self & 1 else Guilt.GUILTY

    def __repr__(self) -> str:
        return f"World({self.transcript!r}, {self.guilt.value})"


# Unchecked constructors for masks and world codes computed in this module.
_transcript_of_mask = partial(int.__new__, Transcript)
_world_of_code = partial(int.__new__, World)


class TestimonyCatalog(Frozen):
    """The finite ordered collection of possible testimonies.

    Labels are opaque strings; everything downstream indexes against
    their position.  Construction refuses a label that is not a string
    (TypeError naming the first), and enforces distinctness and the world-cap
    (default 12, i.e. at most 8192 worlds); pass ``world_cap`` to relax
    or tighten it, up to ``WORLD_CAP_CEILING``.  Catalogs compare, hash
    and print by their labels alone.
    """

    _fields = ("labels",)
    labels: tuple[str, ...]
    world_cap: int

    def __init__(self, labels: Iterable[str], world_cap: int | None = None) -> None:
        labels = tuple(_not_one_string(labels))
        for label in labels:
            if not isinstance(label, str):
                raise TypeError(f"catalog labels must be strings, got {label!r}")
        cap = DEFAULT_WORLD_CAP if world_cap is None else check_world_cap(world_cap)
        positions = {label: i for i, label in enumerate(labels)}  # each label's position
        vars(self).update(labels=labels, world_cap=cap, _positions=positions)
        if len(positions) != len(self.labels):
            raise ValueError(f"catalog labels must be distinct: {self.labels!r}")
        if len(self.labels) > cap:
            raise CapExceeded(
                f"catalog of {len(self.labels)} testimonies exceeds the world cap "
                f"of {cap} (2^{len(self.labels) + 1} worlds); raise world_cap to override"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ForeignTestimony(f"label {label!r} is not in the catalog") from None

    def transcript(self, labels: Iterable[str]) -> Transcript:
        """The transcript of the given labels, in any order, repeats allowed.

        The labels are read once, in order, through ``index``, so the first
        one not in the catalog (foreign, unhashable or not a string) names
        the ForeignTestimony.  One string is refused, not read as its letters.
        """
        mask = 0
        for label in _not_one_string(labels):
            mask |= 1 << self.index(label)
        return _transcript_of_mask(mask)

    def transcript_labels(self, transcript: Transcript) -> tuple[str, ...]:
        self._check_transcript(transcript)
        return tuple(self.labels[i] for i in sorted(transcript.members))

    def _check_transcript(self, transcript: Transcript) -> None:
        if not isinstance(transcript, Transcript):
            raise TypeError(f"expected a Transcript, got {type(transcript).__name__}")
        if transcript >> len(self.labels):
            bad = sorted(i for i in transcript.members if i >= len(self.labels))
            raise ForeignTestimony(
                f"transcript indices {bad} are outside the catalog of size {len(self)}"
            )

    def all_transcripts(self) -> Iterator[Transcript]:
        """All 2^n transcripts in canonical binary-counting order."""
        return iter(_transcript_space(len(self.labels)))


def _require_int(value: object, name: str) -> None:
    """TypeError naming the value unless it is an int; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _not_one_string(labels: Iterable[str]) -> Iterable[str]:
    """The labels; TypeError if they are one string, which would iterate as its letters."""
    if isinstance(labels, str):
        raise TypeError(f"expected a collection of labels, got the string {labels!r}")
    return labels


def check_world_cap(cap: int) -> int:
    """Validate a world cap: TypeError unless an int (a bool is not one),
    ValueError if negative, CapExceeded above the ceiling."""
    _require_int(cap, "the world cap")
    if cap < 0:
        raise ValueError(f"the world cap must be a nonnegative integer, got {cap}")
    if cap > WORLD_CAP_CEILING:
        raise CapExceeded(
            f"world cap {cap} exceeds the hard ceiling of {WORLD_CAP_CEILING} "
            f"(2^{WORLD_CAP_CEILING + 1} worlds)"
        )
    return cap


# The world-space caches below are keyed by the catalog size: the worlds
# of a catalog depend only on how many testimonies it has, not on their
# labels, so same-size catalogs share one copy.


def full_world_space(catalog: TestimonyCatalog) -> tuple[World, ...]:
    """All 2^(n+1) worlds of the catalog in canonical order."""
    return _world_space(len(catalog))


@lru_cache(maxsize=64)
def _world_space(n: int) -> tuple[World, ...]:
    return tuple(map(_world_of_code, range(2 << n)))


@lru_cache(maxsize=64)
def _transcript_space(n: int) -> tuple[Transcript, ...]:
    """All 2^n transcripts in canonical order; ``all_transcripts`` iterates it."""
    return tuple(map(_transcript_of_mask, range(1 << n)))


def world_set(catalog: TestimonyCatalog) -> frozenset[World]:
    """All worlds of the catalog as a set, built once per catalog size."""
    return _world_set(len(catalog))


@lru_cache(maxsize=64)
def _world_set(n: int) -> frozenset[World]:
    return frozenset(_world_space(n))


def event_of_transcript(
    catalog: TestimonyCatalog, transcript: Transcript
) -> frozenset[World]:
    """The two-world event of perceiving exactly this transcript."""
    catalog._check_transcript(transcript)
    return frozenset(
        {World(transcript, Guilt.GUILTY), World(transcript, Guilt.INNOCENT)}
    )


def guilt_event(catalog: TestimonyCatalog) -> frozenset[World]:
    """All worlds in which the defendant is materially guilty."""
    return _guilt_event(len(catalog))


@lru_cache(maxsize=64)
def _guilt_event(n: int) -> frozenset[World]:
    return frozenset(_world_space(n)[::2])  # the even codes


def heard_event(catalog: TestimonyCatalog, transcript: Transcript) -> frozenset[World]:
    """All worlds whose transcript contains the given testimonies.

    This is the cumulative "these testimonies were heard" event; the
    exact-transcript event is ``event_of_transcript``.
    """
    catalog._check_transcript(transcript)
    # bit i of the transcript is bit i+1 of the world code
    return frozenset(w for w in full_world_space(catalog) if w >> 1 & transcript == transcript)


def heard_prefix_algebra(catalog: TestimonyCatalog, steps: int) -> "BooleanSubalgebra":
    """The algebra the heard-events of the first testimonies generate with guilt.

    For m = ``steps``, H_k is ``heard_event(catalog, Transcript(range(k)))``
    and H_0 the world space.  The 2m + 2 atoms are each layer
    H_(j-1) - H_j split into its guilty and innocent part, j = 1..m, then
    the tail H_m split likewise, in canonical order, so H_k is the union
    of atoms 2k onward.  TypeError unless ``steps`` is an int (a bool is
    not one), ValueError if it is negative, ForeignTestimony if it exceeds
    the catalog.  The atoms are built on first read.
    """
    _require_int(steps, "steps")
    if not 0 <= steps <= len(catalog):
        error = ValueError if steps < 0 else ForeignTestimony
        raise error(f"steps must lie in 0..{len(catalog)}, got {steps}")
    ws = full_world_space(catalog)
    # A world's code is 2*mask + g.  H_k holds the masks whose low k bits
    # are all set, i.e. the codes 2^(k+1) - 2 + g modulo 2^(k+1); layer
    # H_(j-1) - H_j also has bit j-1 of the mask clear, i.e. the codes
    # 2^j - 2 + g modulo 2^(j+1).  Each set is a stride slice per guilt
    # value, and the slices' first codes increase along the atoms.
    # (first code, stride) of each layer's guilty part, then of the tail's.
    # A mask whose lowest clear bit is j - 1 < m lies in layer j alone, and
    # a mask with its m low bits set in the tail, so the atoms partition
    # the world space (none is empty, as m <= n) and need no check.
    parts = [((1 << j) - 2, 2 << j) for j in range(1, steps + 1)]
    parts.append(((2 << steps) - 2, 2 << steps))
    slices = tuple((first + g, stride) for first, stride in parts for g in (0, 1))
    return BooleanSubalgebra._unchecked(
        ws, world_set(catalog), atom_count=len(slices), _slices=slices
    )


# ---------------------------------------------------------------------------
# Boolean subalgebras, represented by their atom partitions.


class BooleanSubalgebra(Frozen):
    """A Boolean algebra of subsets of a finite ground set.

    Represented by its atoms: a partition of the ground set into nonempty
    blocks.  The algebra's members are exactly the unions of blocks, so a
    partition with k blocks encodes 2^k members without listing them.

    ``ground`` is an ordered tuple; the order is the canonical element
    order used for deterministic atom ordering and serialization.  Both
    are kept as tuples, the atoms as frozensets, whatever they were built
    from.  On the cached world tuple the ground set is the cached world
    set itself, not a copy.  ``atom_count`` is stored when the algebra is
    built, so it needs no atoms; ``world_algebra`` and
    ``heard_prefix_algebra`` build ``atoms`` from their rule on its first
    read (see ``_atoms_by_rule``).
    """

    _fields = ("ground", "atoms")
    ground: tuple[Hashable, ...]

    def __init__(self, ground: tuple[Hashable, ...], atoms: tuple[frozenset, ...]) -> None:
        ground = tuple(ground)
        ground_set = _ground_set_of(ground)
        _check_partition(atoms, ground_set)
        atoms = tuple(map(frozenset, atoms))  # after the check, which refuses a str
        vars(self).update(ground=ground, atoms=atoms, atom_count=len(atoms), _ground_set=ground_set)

    @cached_property
    def atoms(self) -> tuple[frozenset, ...]:
        """Read only on an algebra built by rule; one built from its atoms holds
        them.  It looks ``_atoms_by_rule`` up by name, so a test can count the
        builds."""
        return _atoms_by_rule(self)

    @property
    def ground_set(self) -> frozenset:
        """The ground as a set, built once at construction."""
        return self._ground_set  # type: ignore[attr-defined]

    #: True only on ``world_algebra``'s algebras, which set it when built:
    #: their ground and singleton atoms list a world space in canonical
    #: order, so atom i is the world with code i, and atoms 2k and 2k+1 are
    #: the guilty and innocent worlds of the k-th transcript.  Any other
    #: algebra reads False, whatever its shape, and takes the atom paths.
    is_world_powerset = False

    @cached_property
    def _position(self) -> dict[Hashable, int] | None:
        """Each ground element's index, built on first use; None on the cached
        world tuple, where an element's index is its world code."""
        if _world_tuple_size(self.ground) is not None:
            return None
        return {e: i for i, e in enumerate(self.ground)}

    @classmethod
    def _unchecked(cls, ground, ground_set, atoms=None, **cached) -> "BooleanSubalgebra":
        """An algebra whose atoms partition ``ground_set`` by construction: no check runs.

        Without ``atoms``, ``cached`` holds ``atom_count`` and the rule
        ``_atoms_by_rule`` reads on the first read of ``atoms``.
        """
        algebra = cls.__new__(cls)
        if atoms is not None:
            cached.update(atoms=atoms, atom_count=len(atoms))
        vars(algebra).update(ground=ground, _ground_set=ground_set, **cached)
        return algebra

    def atom_sort_key(self, atom: frozenset) -> int:
        position = self._position
        return min(atom) if position is None else min(map(position.__getitem__, atom))

    @cached_property
    def _atom_keys(self) -> tuple[int, ...]:
        """Each atom's sort key, built on first use; ``split`` hands its children theirs."""
        if self.atom_count == 1:  # the whole ground, which starts at position 0
            return (0,)
        return tuple(map(self.atom_sort_key, self.atoms))

    def cover(self, event: AbstractSet) -> tuple[Iterable[int], list[int]]:
        """The indices of the atoms inside ``event``, and of the atoms it cuts.

        ``event`` must lie within the ground set.  On a world powerset atom
        i is the world with code i, so the event's worlds are the indices
        of the atoms inside it and no atom is cut.  Any other algebra takes
        one pass over its atoms and lists both in atom order.
        """
        if self.is_world_powerset:
            return event, []
        inside, covered = [], 0
        for i, atom in enumerate(self.atoms):
            if atom <= event:
                inside.append(i)
                covered += len(atom)
        # the atoms partition the ground, so unless the event cuts one they
        # hold all of it; only then are the others scanned for a common element
        if covered == len(event):
            return inside, []
        held = set(inside)
        return inside, [
            i for i, atom in enumerate(self.atoms) if i not in held and not atom.isdisjoint(event)
        ]

    def members(self) -> Iterator[frozenset]:
        """All 2^k members.  Exponential; intended for small algebras."""
        for r in range(self.atom_count + 1):
            for combo in itertools.combinations(self.atoms, r):
                yield frozenset().union(*combo) if combo else frozenset()

    def split(self, event: AbstractSet) -> tuple["BooleanSubalgebra", list[tuple]]:
        """The algebra generated by this one and ``event``, and each atom's parts.

        Returns the child and every atom's (inside, outside) parts, an atom
        the event does not cut reused beside an empty part.  Splitting each
        block of a partition by one set leaves a partition, so the child is
        built unchecked.  ValueError if the event leaves the ground set.
        """
        event = frozenset(event)
        parts: list[tuple[frozenset, frozenset]] = []
        # each child atom by its sort key; an uncut atom, and the part of a
        # cut one that holds its first element, keep the parent atom's key
        by_key: dict[int, frozenset] = {}
        for atom, key in zip(self.atoms, self._atom_keys):
            inside = atom & event
            if len(inside) == len(atom):
                parts.append((atom, frozenset()))
            elif not inside:
                parts.append((inside, atom))
            else:
                outside = atom - inside
                parts.append((inside, outside))
                first, other = (inside, outside) if self.ground[key] in inside else (outside, inside)
                by_key[self.atom_sort_key(other)] = other
                atom = first
            by_key[key] = atom
        if sum(len(inside) for inside, _ in parts) != len(event):
            raise ValueError("adjoined set contains elements outside the ground set")
        keys = tuple(sorted(by_key))
        atoms = tuple(map(by_key.__getitem__, keys))
        child = self._unchecked(
            self.ground, self._ground_set, atoms, _position=self._position, _atom_keys=keys
        )
        return child, parts

    def adjoin(self, new_event: AbstractSet) -> "BooleanSubalgebra":
        """The algebra generated by this one plus one more set (see ``split``)."""
        return self.split(new_event)[0]


def _atoms_by_rule(algebra: BooleanSubalgebra) -> tuple[frozenset, ...]:
    """The atoms of an algebra built by rule: a world powerset's singletons,
    else each ``(start, stride)`` slice of the ground in ``_slices``."""
    ground = algebra.ground
    if algebra.is_world_powerset:
        return tuple(map(frozenset, zip(ground)))
    return tuple(frozenset(ground[start::stride]) for start, stride in algebra._slices)


def _check_partition(atoms: tuple[frozenset, ...], ground_set: frozenset) -> None:
    """ValueError unless the atoms are nonempty blocks partitioning the ground set."""
    covered = 0
    for atom in atoms:
        if not atom:
            raise ValueError("atoms must be nonempty")
        if not atom <= ground_set:
            raise ValueError("atom contains elements outside the ground set")
        covered += len(atom)
    union = frozenset().union(*atoms) if atoms else frozenset()
    # equal sizes rule out overlaps, equal union rules out gaps
    if covered != len(ground_set) or union != ground_set:
        raise ValueError("atoms must partition the ground set")


def powerset_algebra(ground: Sequence[Hashable]) -> BooleanSubalgebra:
    """The full powerset algebra: one singleton atom per element."""
    ground = tuple(ground)
    return BooleanSubalgebra(ground, tuple(frozenset({e}) for e in ground))


def world_algebra(catalog: TestimonyCatalog) -> BooleanSubalgebra:
    """The powerset algebra of the catalog's world space, built once per catalog size.

    Its atoms are the singleton worlds in canonical order, so atoms 2k and
    2k+1 are the guilty and innocent worlds of the k-th transcript of
    ``catalog.all_transcripts()``.
    """
    return _world_algebra(len(catalog))


@lru_cache(maxsize=16)
def _world_algebra(n: int) -> BooleanSubalgebra:
    worlds = _world_space(n)  # one singleton atom per world, in order, built on first read
    return BooleanSubalgebra._unchecked(
        worlds, _world_set(n), atom_count=len(worlds), is_world_powerset=True
    )


def _world_tuple_size(ground: tuple) -> int | None:
    """n if ``ground`` is the cached world tuple of n testimonies, else None.

    Only a ground of 2^(n+1) worlds is compared with the cached tuple by
    identity, so a ground of any other size builds no world space.
    """
    n = len(ground).bit_length() - 2
    sized = 0 <= n <= WORLD_CAP_CEILING and len(ground) == 2 << n
    return n if sized and type(ground[-1]) is World and ground is _world_space(n) else None


def _ground_set_of(ground: tuple) -> frozenset:
    """The ground as a set: the cached world set on the cached world tuple,
    else a new one.  ValueError if the ground repeats an element."""
    n = _world_tuple_size(ground)
    ground_set = frozenset(ground) if n is None else _world_set(n)
    if len(ground_set) != len(ground):
        raise ValueError("ground elements must be distinct")
    return ground_set


def require_world_ground(algebra: BooleanSubalgebra, catalog: TestimonyCatalog) -> None:
    """CatalogMismatch unless the algebra's ground is the catalog's world space.

    Every algebra built on the cached world tuple, by the public
    constructor or any builder here, holds the cached world set, and
    ``split`` children share their parent's, so identity settles most.
    """
    ground_set = algebra.ground_set
    if ground_set is world_set(catalog):
        return
    # plain ints equal to the world codes compare equal to the worlds
    if ground_set != world_set(catalog) or set(map(type, algebra.ground)) != {World}:
        raise CatalogMismatch("the charge is not defined on the world space of this catalog")


def transcript_masses(
    algebra: BooleanSubalgebra, values: Sequence, codes: Sequence,
    catalog: TestimonyCatalog | None = None,
) -> tuple[Iterable[Transcript], list, Iterable[int], Iterable[int]]:
    """Every transcript T, a list of masses, and the codes of T's two masses.

    The codes, aligned with the transcripts, are those of P(E_T ∩ G) and
    of P(E_T ∩ ¬G).  Atom i's mass is ``values[codes[i]]``, and the codes
    returned index the list returned: ``values``, and on an algebra that
    is no world powerset one more entry, zero, the code of a transcript
    no atom holds a world of.  So callers can decide each value once.
    With a catalog the algebra must live on its world space
    (CatalogMismatch otherwise) and transcripts come in canonical order;
    without one every ground element must be a World (TypeError
    otherwise) and transcripts come in ground order.  A world powerset's
    columns are its codes read pairwise.  Any other algebra takes one pass
    over its atoms, and its columns are lazy: each raises NotExpressible
    on reaching a transcript whose event cuts through an atom, or whose
    guilty and innocent worlds share an atom of positive mass, so callers
    that stop early never reach the error.
    """
    if catalog is not None:
        require_world_ground(algebra, catalog)
        order: Iterable[Transcript] = catalog.all_transcripts()
    elif algebra.is_world_powerset:
        order = map(attrgetter("transcript"), itertools.islice(algebra.ground, 0, None, 2))
    elif all(map(isinstance, algebra.ground, itertools.repeat(World))):
        order = dict.fromkeys(map(attrgetter("transcript"), algebra.ground))
    else:
        raise TypeError("transcript posteriors need a charge over trial worlds")
    if algebra.is_world_powerset:
        # one atom per world, canonical order: guilty then innocent per transcript
        return order, list(values), codes[0::2], codes[1::2]
    order = tuple(order)  # read by both columns
    guilty: dict[Transcript, int] = {}
    innocent: dict[Transcript, int] = {}
    cut: set[Transcript] = set()
    for atom, code in zip(algebra.atoms, codes):
        if len(atom) == 1:
            (world,) = atom
            (guilty if world.guilt is Guilt.GUILTY else innocent)[world.transcript] = code
            continue
        members = {w.transcript for w in atom}
        # an atom across transcripts, or one transcript's two worlds with positive mass
        if len(members) > 1 or values[code]:
            cut |= members

    def column(side: dict[Transcript, int]) -> Iterator[int]:
        for transcript in order:
            if transcript in cut:
                raise NotExpressible("event is not a union of atoms (it cuts through an atom)")
            yield side.get(transcript, len(values))

    return order, [*values, ZERO], column(guilty), column(innocent)


def atom_names(
    algebra: BooleanSubalgebra, world_names: Sequence[str]
) -> tuple[Iterable[str], Iterable[list[str]]]:
    """Each atom's mass key, and each atom's world names in world order.

    ``world_names`` is indexed by world code.  A world powerset's keys are
    ``world_names`` itself; any other algebra's key joins its atom's world
    names with ";", so keys are byte-stable.
    """
    if algebra.is_world_powerset:
        return world_names, map(list, zip(world_names))
    lists = [[world_names[w] for w in sorted(atom)] for atom in algebra.atoms]
    return map(";".join, lists), lists


def atoms_of_generated_algebra(
    ground: Sequence[Hashable], generators: Iterable[AbstractSet]
) -> BooleanSubalgebra:
    """The subalgebra generated by the given sets, adjoined one at a time.

    Atoms are the nonempty cells of the sign-pattern partition: two
    elements share an atom iff every generator contains both or neither.
    """
    ground = tuple(ground)
    ground_set = _ground_set_of(ground)
    # the whole ground set is one block of a partition, so the start needs no check
    whole = BooleanSubalgebra._unchecked(ground, ground_set, (ground_set,) if ground else ())
    return reduce(BooleanSubalgebra.adjoin, generators, whole)


def is_expressible(event: AbstractSet, algebra: BooleanSubalgebra) -> bool:
    """True iff the event is a union of the algebra's atoms."""
    event = frozenset(event)
    if not event <= algebra.ground_set:
        return False
    return not algebra.cover(event)[1]


def is_logically_independent(event: AbstractSet, algebra: BooleanSubalgebra) -> bool:
    """Literal logical independence of a set from the algebra.

    Definition: every member A of the algebra other than the ground set
    and the empty set satisfies A ∩ B ≠ ∅ and A^c ∩ B ≠ ∅.  Equivalent
    atom-level test: vacuously true on the trivial one-atom algebra;
    otherwise true iff B meets every atom (each atom is itself a
    nontrivial member, and any nontrivial member and its complement are
    nonempty unions of atoms).  Note the literal definition makes
    B = ground independent, and B = ∅ independent only on the trivial
    algebra.
    """
    event = frozenset(event)
    if algebra.atom_count <= 1:
        return True
    return all(not atom.isdisjoint(event) for atom in algebra.atoms)
