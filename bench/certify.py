"""The ``certify`` workload: a library round trip on the full powerset
algebra over trial worlds.

Each request parses a seeded disposition document, rationalizes it at a
seeded threshold, serializes the certificate to JSON text and back,
verifies the parsed prior, runs the open-door check and reads the guilt
prior.  Every world-space construction here goes through
``Charge.measure`` and ``BooleanSubalgebra.ground_set``, whose cost grows
as 4^n, so n=8 requests (a quarter of the mix) set the 90th percentile
and n=6 requests the median.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from exact import HALF, Outcome, den_bits, fmt, labels_for, rational
from tracer import JSON_SPAN
from jurybayes import dispositions, serialize

#: Each block of eight requests holds six small and two large catalogs, so
#: the median and the 90th percentile each sit well inside one size class.
BLOCK = (0, 0, 0, 0, 0, 0, 1, 1)
BLOCKS = 12


@dataclass(frozen=True)
class CertifyRequest:
    n: int
    disposition_text: str
    theta: str
    convicting_masks: frozenset[int]


class CertifyWorkload:
    name = "certify"

    def __init__(self, seed: int, small: bool) -> None:
        sizes = (3, 4) if small else (6, 8)
        rng = random.Random(f"certify-{seed}")
        self.pool: list[CertifyRequest] = []
        for _ in range(BLOCKS):
            block = list(BLOCK)
            rng.shuffle(block)
            self.pool += [self._generate(rng, sizes[k]) for k in block]
        self.warmup = [next(i for i, r in enumerate(self.pool) if r.n == n) for n in sizes]

    @staticmethod
    def _generate(rng: random.Random, n: int) -> CertifyRequest:
        labels = labels_for(n)
        masks = [m for m in range(1, 1 << n) if rng.random() < 0.5]
        if not masks:
            masks = [rng.randrange(1, 1 << n)]
        doc = {
            "catalog": list(labels),
            "convicting": [[labels[i] for i in range(n) if m >> i & 1] for m in masks],
            "default": "acquit",
        }
        theta = rational(rng, HALF, Fraction(1))
        return CertifyRequest(n, json.dumps(doc), fmt(theta), frozenset(masks))

    def run(self, request: CertifyRequest, probe: Any) -> dict[str, Any]:
        with probe.span(JSON_SPAN):
            disposition_doc = json.loads(request.disposition_text)
        disposition = serialize.disposition_from_jsonable(disposition_doc)
        certificate = dispositions.rationalize(disposition, request.theta)
        document = serialize.certificate_to_jsonable(certificate)
        with probe.span(JSON_SPAN):
            text = json.dumps(document)
            parsed = json.loads(text)
        probe.count("serialize.doc_bytes", len(text) + len(request.disposition_text))
        catalog, prior = serialize.charge_document_from_jsonable(parsed)
        verified = dispositions.verify_rationalization(disposition, request.theta, prior)
        return {
            "text": text,
            "parsed": parsed,
            "catalog": catalog,
            "prior": prior,
            "verified": verified,
            "open_door": dispositions.is_open_door(prior),
            "guilt_prior": dispositions.guilt_prior(prior, catalog),
        }

    def check(self, request: CertifyRequest, out: dict[str, Any]) -> Outcome:
        theta = Fraction(request.theta)
        problems: list[str] = []
        verified = out["verified"]
        if not verified.ok:
            problems.append("verify_rationalization failed")
        if len(verified.posteriors) != 1 << request.n:
            problems.append("verify skipped transcripts")
        for transcript, posterior in verified.posteriors.items():
            expected = theta if transcript.mask in request.convicting_masks else 1 - theta
            if posterior != expected:
                problems.append(f"posterior {fmt(posterior)} != {fmt(expected)}")
                break
        rows = out["parsed"]["posteriors"]
        for mask, row in enumerate(rows):
            convicts = mask in request.convicting_masks
            expected = fmt(theta if convicts else 1 - theta)
            if row["posterior"] != expected or row["verdict"] != ("convict" if convicts else "acquit"):
                problems.append(f"certificate row {mask} is {row}")
                break
        if out["guilt_prior"] != HALF:
            problems.append(f"guilt prior {fmt(out['guilt_prior'])}")
        if out["open_door"] is not True:
            problems.append("prior is not open-door")
        prior = out["prior"]
        again = json.dumps(serialize.charge_to_jsonable(out["catalog"], prior))
        if again != json.dumps(out["parsed"]["prior"]):
            problems.append("re-serialized prior differs")
        return Outcome(
            problems,
            output=f"{out['text']}|{verified.ok}|{out['open_door']}|{fmt(out['guilt_prior'])}",
            worlds=len(prior.algebra.ground),
            atoms=len(prior.algebra.atoms),
            den_bits=den_bits(prior.masses),
        )
