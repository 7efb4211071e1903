"""JSON formats for catalogs, dispositions, charges, and certificates.

All rational values travel as exact strings ("3/4"); world and atom keys
are canonical and byte-stable, so identical inputs serialize to
identical bytes.  Decimal renderings appear only in human-readable
tables and are marked approximate there.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from itertools import compress, repeat
from typing import Any, Iterable, Mapping

from .charges import Charge
from .dispositions import Disposition, RationalizationCertificate, Verdict
from .errors import CapExceeded, CatalogMismatch, ForeignTestimony, ParseError
from .rationals import ZERO, as_rational, format_rational
from .worlds import (
    BooleanSubalgebra,
    Guilt,
    TestimonyCatalog,
    Transcript,
    World,
    atom_names,
    event_of_transcript,
    full_world_space,
    guilt_event,
    heard_event,
    require_world_ground,
    world_algebra,
)

#: Labels must stay clear of the characters world keys and event specs use.
_LABEL_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _check_labels(labels: Iterable[str]) -> None:
    """ParseError for a label that world keys could not name unambiguously."""
    for label in labels:
        if not _LABEL_RE.fullmatch(label):
            raise ParseError(
                f"label {label!r} is not serializable; use letters, digits, '_', '.', '-'"
            )


def parse_world_key(catalog: TestimonyCatalog, key: str) -> World:
    """The world a key names, read label by label; canonical or not, such as '{b,a}|G'."""
    if not isinstance(key, str):
        raise ParseError(f"world key must be a string, got {key!r}")
    match = re.fullmatch(r"\{([^{}|]*)\}\|([GI])", key)
    if not match:
        raise ParseError(f"bad world key {key!r}; expected e.g. '{{t1,t2}}|G'")
    inner, guilt_letter = match.groups()
    return World(_transcript_of_list(catalog, inner, ",", f"world key {key!r}"), Guilt(guilt_letter))


def _transcript_of_list(catalog: TestimonyCatalog, text: str, sep: str, what: str) -> Transcript:
    """The transcript of a ``sep``-separated label list, empty parts skipped;
    ParseError headed ``what`` naming the first label not in the catalog."""
    try:
        return catalog.transcript(filter(None, text.split(sep)))
    except ForeignTestimony as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _worlds_of_keys(table: _KeyTable, keys: list) -> frozenset:
    """The worlds the keys name.  Canonical keys are looked up in the key
    table; when any key is not, every key is read by ``parse_world_key`` in
    order, so the first bad one names the error."""
    try:
        return frozenset(map(table.index.__getitem__, keys))
    except (KeyError, TypeError):  # TypeError: an unhashable key
        return frozenset(parse_world_key(table.catalog, key) for key in keys)


class _KeyTable:
    """A catalog's canonical label tuples, world keys and key-to-world map;
    each field built on first use."""

    def __init__(self, catalog: TestimonyCatalog) -> None:
        self.catalog = catalog
        self.labels = catalog.labels

    @cached_property
    def transcripts(self) -> tuple[tuple[str, ...], ...]:
        """Each transcript's labels, in canonical order."""
        rows: list[tuple[str, ...]] = [()]
        for label in self.labels:  # appended to every row so far, in canonical order
            rows += [row + (label,) for row in rows]
        return tuple(rows)

    @cached_property
    def by_labels(self) -> dict[tuple[str, ...], Transcript]:
        """The reverse of ``transcripts``: a canonical label tuple -> its transcript."""
        return dict(zip(self.transcripts, self.catalog.all_transcripts()))

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """Each world's key, in canonical order."""
        return tuple(f"{{{','.join(row)}}}|{guilt}" for row in self.transcripts for guilt in "GI")

    @cached_property
    def index(self) -> dict[str, World]:
        """key -> its world, whose value is its position in the world order
        and in world_algebra's atoms."""
        return dict(zip(self.keys, world_algebra(self.catalog).ground))


#: The last-seen catalog's table for each size, like the world algebra's cache; never mutated.
_key_tables: dict[int, _KeyTable] = {}


def _key_table(catalog: TestimonyCatalog) -> _KeyTable:
    table = _key_tables.get(len(catalog))
    if table is None or table.labels != catalog.labels:
        _check_labels(catalog.labels)
        table = _key_tables[len(catalog)] = _KeyTable(catalog)
    return table


# ---------------------------------------------------------------------------
# Catalogs.


def catalog_from_jsonable(labels: Any, *, world_cap: int | None = None) -> TestimonyCatalog:
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError('"catalog" must be a list of strings')
    _check_labels(labels)
    try:
        return TestimonyCatalog(labels, world_cap=world_cap)
    except CapExceeded:
        raise  # configuration limit, not a malformed file; keeps its own exit code
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _require_keys(obj: Mapping[str, Any], required: set[str], optional: set[str], what: str) -> None:
    if not isinstance(obj, Mapping):
        raise ParseError(f"{what} must be a JSON object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ParseError(f"{what} is missing key(s): {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ParseError(f"{what} has unknown key(s): {sorted(unknown)}")


# ---------------------------------------------------------------------------
# Dispositions.


def disposition_to_jsonable(disposition: Disposition) -> dict[str, Any]:
    catalog = disposition.catalog
    labels = _key_table(catalog).transcripts  # indexed by transcript; checks the labels
    return {
        "catalog": list(catalog.labels),
        "convicting": list(map(list, compress(labels, disposition.flags))),
        "default": "acquit",
    }


def disposition_from_jsonable(
    obj: Any, *, world_cap: int | None = None
) -> Disposition:
    _require_keys(obj, {"catalog", "convicting"}, {"default"}, "disposition")
    if obj.get("default", "acquit") != "acquit":
        raise ParseError('only "acquit" is supported as the disposition default')
    catalog = catalog_from_jsonable(obj["catalog"], world_cap=world_cap)
    raw = obj["convicting"]
    if not isinstance(raw, list) or not all(map(isinstance, raw, repeat(list))):
        raise ParseError('"convicting" must be a list of label lists')
    # canonical label lists are looked up in one table; when any list is
    # not, all are read label by label, so the first bad label names the error
    try:
        return Disposition(catalog, map(_key_table(catalog).by_labels.__getitem__, map(tuple, raw)))
    except (KeyError, TypeError):  # TypeError: an unhashable label
        pass
    try:
        return Disposition.from_label_sets(catalog, raw)
    except ForeignTestimony as exc:
        raise ParseError(f"bad convicting transcript: {exc}") from exc


# ---------------------------------------------------------------------------
# Charges over world spaces.


def charge_to_jsonable(catalog: TestimonyCatalog, charge: Charge) -> dict[str, Any]:
    """The charge's document: every atom's key and its mass, in atom order.

    Each of the charge's values is formatted once and the atoms' codes
    pick their literal, so a charge built from codes formats only its few
    values.  CatalogMismatch unless the charge lives on the catalog's
    world space.
    """
    algebra = charge.algebra
    require_world_ground(algebra, catalog)
    doc: dict[str, Any] = {"catalog": list(catalog.labels)}
    keys, atoms = atom_names(algebra, _key_table(catalog).keys)
    # the atoms partition the ground, so equal counts mean all singletons
    if algebra.atom_count != len(algebra.ground):
        doc["atoms"] = atoms
    rendered = list(map(format_rational, charge.values))
    doc["masses"] = dict(zip(keys, map(rendered.__getitem__, charge.codes)))
    return doc


def charge_from_jsonable(
    obj: Any, *, world_cap: int | None = None
) -> tuple[TestimonyCatalog, Charge]:
    """The catalog and the charge of a charge document; ParseError if it is malformed.

    The masses are read key by key, so the first bad key names the error,
    and an atom the document omits has mass zero.  Each distinct literal
    is parsed once and gives the atoms that carry it their code.
    """
    _require_keys(obj, {"catalog", "masses"}, {"atoms"}, "charge")
    catalog = catalog_from_jsonable(obj["catalog"], world_cap=world_cap)
    table = _key_table(catalog)

    if "atoms" in obj:
        raw_atoms = obj["atoms"]
        if not isinstance(raw_atoms, list) or not all(
            isinstance(a, list) for a in raw_atoms
        ):
            raise ParseError('"atoms" must be a list of world-key lists')
        atoms = [_worlds_of_keys(table, raw) for raw in raw_atoms]
        # an empty atom has no first world; the partition check rejects it
        ordered = tuple(sorted(atoms, key=lambda atom: min(atom, default=-1)))
        try:
            algebra = BooleanSubalgebra(full_world_space(catalog), ordered)
        except ValueError as exc:
            raise ParseError(f"bad atom partition: {exc}") from exc
        names = atom_names(algebra, table.keys)[0]
        key_to_index = {name: i for i, name in enumerate(names)}
    else:
        algebra = world_algebra(catalog)
        key_to_index = table.index

    raw_masses = obj["masses"]
    if not isinstance(raw_masses, Mapping):
        raise ParseError('"masses" must be an object mapping atom keys to rationals')
    values, code_of, codes = [ZERO], {}, [0] * algebra.atom_count
    for key, raw_value in raw_masses.items():
        index = key_to_index.get(key)
        if index is None:
            raise ParseError(f"mass key {key!r} is not an atom of the charge's algebra")
        if not isinstance(raw_value, str):
            raise ParseError(
                f"mass for {key!r} must be an exact rational string, got {raw_value!r}"
            )
        if raw_value not in code_of:
            try:
                values.append(as_rational(raw_value, name=f"mass[{key}]"))
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
            code_of[raw_value] = len(values) - 1
        codes[index] = code_of[raw_value]
    try:
        charge = Charge._from_codes(algebra, values, tuple(codes))
    except ValueError as exc:
        raise ParseError(f"invalid charge: {exc}") from exc
    return catalog, charge


def charge_document_from_jsonable(
    obj: Any, *, world_cap: int | None = None
) -> tuple[TestimonyCatalog, Charge]:
    """Accept either a bare charge document or a certificate (its prior).

    A certificate must carry exactly the five top-level keys its writer
    writes (ParseError otherwise); its other fields are not yet checked."""
    if isinstance(obj, Mapping) and "prior" in obj:
        written = {"catalog", "theta", "guilt_prior", "posteriors", "prior"}
        _require_keys(obj, written, set(), "certificate")
        return charge_from_jsonable(obj["prior"], world_cap=world_cap)
    return charge_from_jsonable(obj, world_cap=world_cap)


# ---------------------------------------------------------------------------
# Certificates.


def certificate_to_jsonable(certificate: RationalizationCertificate) -> dict[str, Any]:
    catalog = certificate.disposition.catalog
    transcripts = _key_table(catalog).transcripts  # indexed by transcript; checks the labels
    # the certificate's posterior: theta where it convicts, 1-theta where it acquits
    theta = format_rational(certificate.theta)
    convict = (Verdict.CONVICT.value, theta)
    acquit = (Verdict.ACQUIT.value, format_rational(1 - certificate.theta))
    rows = []
    for flag, labels in zip(certificate.disposition.flags, transcripts):
        verdict, posterior = convict if flag else acquit
        rows.append({"transcript": list(labels), "verdict": verdict, "posterior": posterior})
    return {
        "catalog": list(catalog.labels),
        "theta": theta,
        "guilt_prior": format_rational(certificate.guilt_prior),
        "posteriors": rows,
        "prior": charge_to_jsonable(catalog, certificate.prior),
    }


# ---------------------------------------------------------------------------
# Event literals for the command line.


def event_from_spec(catalog: TestimonyCatalog, spec: str) -> frozenset:
    """Parse an event literal.

    Forms: "guilt"; "transcript:a+b" (exact-transcript event, empty after
    the colon for the no-testimony transcript); "heard:a+b" (all worlds
    whose transcript includes the listed testimonies); or a JSON array of
    world keys.
    """
    spec = spec.strip()
    if spec == "guilt":
        return guilt_event(catalog)
    if spec.startswith("transcript:") or spec.startswith("heard:"):
        kind, _, rest = spec.partition(":")
        transcript = _transcript_of_list(catalog, rest, "+", f"event spec {spec!r}")
        if kind == "transcript":
            return event_of_transcript(catalog, transcript)
        return heard_event(catalog, transcript)
    if spec.startswith("["):
        try:
            keys = json.loads(spec)
        except (ValueError, RecursionError) as exc:  # also huge ints, deep nesting
            raise ParseError(f"event spec is not valid JSON: {exc}") from exc
        if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
            raise ParseError("a JSON event spec must be an array of world keys")
        return _worlds_of_keys(_key_table(catalog), keys)
    raise ParseError(
        f"unrecognized event spec {spec!r}; use 'guilt', 'transcript:...', "
        "'heard:...', or a JSON array of world keys"
    )


def require_same_catalog(first: TestimonyCatalog, second: TestimonyCatalog) -> None:
    if first.labels != second.labels:
        raise CatalogMismatch(
            f"catalogs differ: {list(first.labels)} vs {list(second.labels)}"
        )
