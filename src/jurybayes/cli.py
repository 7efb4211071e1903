"""Command-line front end.

Reads JSON inputs, dispatches to the library, and prints deterministic
reports: JSON by default (exact rational strings only), or a
human-readable table in which decimal columns are explicitly
approximate.  Every domain error exits with its class's documented code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from typing import Any, Callable, NoReturn, Sequence

import jurybayes as jb

from .errors import JuryBayesError, ParseError
from .rationals import approx_decimal, as_rational, format_rational

WORLD_CAP_ENV = "JURYBAYES_WORLD_CAP"

#: 128 + SIGPIPE: stdout was closed before the report was written.
EXIT_BROKEN_PIPE = 141


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc = args.handler(args)
        text = render(doc, args.format)
        print(text)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        if getattr(args, "out", None):
            saved = doc.get("charge", doc)
            if saved is not doc or args.format != "json":
                text = render(saved, "json")
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
            except OSError as exc:
                raise ParseError(f"cannot write {args.out}: {exc}") from exc
    except JuryBayesError as exc:
        # one line, even for a message that quotes an argument holding a newline
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"error[{type(exc).__name__}]: {message}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).  Point stdout at
        # devnull so the interpreter's final flush cannot raise again, and
        # exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return 0


class Parser(argparse.ArgumentParser):
    """Raises ParseError for usage errors, and reads "-1/2" or "-1e5" as a value, not an option."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern admits only "-1" and "-0.5"; no option starts with a digit
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str) -> NoReturn:
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="jurybayes",
        description=(
            "Exact-rational juror models: rationalize verdict dispositions, "
            "verify threshold behaviour, extend charges to prescribed "
            "conditionals, and reproduce the classic odds and threshold numbers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable[[argparse.Namespace], dict[str, Any]],
                help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def add_rational(p: Any, flag: str, **kwargs: Any) -> None:
        p.add_argument(flag, type=partial(rational, flag), **kwargs)

    p = command("rationalize", cmd_rationalize, "build a certificate prior for a disposition file")
    p.add_argument("disposition_file")
    add_rational(p, "--theta", required=True, help="threshold in (1/2, 1), e.g. 3/4")
    p.add_argument("--out", help="also write the certificate JSON to this file")

    p = command("verify", cmd_verify, "check a charge against a disposition's threshold behaviour")
    p.add_argument("disposition_file")
    p.add_argument("charge_file", help="a charge document or a certificate (its prior is used)")
    add_rational(p, "--theta", required=True, help="threshold in (0, 1), e.g. 3/4")

    p = command("extend", cmd_extend, "adjoin an event with a prescribed conditional value")
    p.add_argument("charge_file")
    p.add_argument("--event", required=True, help="existing event, e.g. 'guilt'")
    p.add_argument("--given", required=True, help="event to adjoin, e.g. 'heard:t1' or a JSON world-key array")
    add_rational(p, "--target", required=True, help="conditional value in [0, 1]")
    p.add_argument("--out", help="also write the extended charge JSON to this file")

    p = command("threshold", cmd_threshold, "belief or verdict-utility threshold")
    group = p.add_mutually_exclusive_group(required=True)
    add_rational(group, "--weights", nargs=2, metavar=("R", "W"),
                 help="reward and penalty, threshold W/(R+W)")
    add_rational(group, "--quadruple", nargs=4,
                 metavar=("CONVICT_GUILTY", "CONVICT_INNOCENT", "ACQUIT_GUILTY", "ACQUIT_INNOCENT"),
                 help="four-outcome utilities")

    p = command("odds", cmd_odds, "posterior odds from prior odds and a likelihood ratio")
    p.add_argument("--prior", required=True, help="odds a:b, e.g. 1:2")
    add_rational(p, "--lr", required=True, help="likelihood ratio, e.g. 8")

    p = command("rate", cmd_rate, "testimony count needed under a posterior-ratio bound")
    add_rational(p, "--gamma", required=True, help="ratio slack, bound is 1+gamma")
    add_rational(p, "--theta", required=True, help="verdict threshold in (0, 1)")
    p.add_argument(
        "--build", action="store_true",
        help="construct the convicting prior and emit its exact posterior trail",
    )

    p = command("scenario", cmd_scenario, "regenerate a worked example")
    p.add_argument("name", choices=("spann", "two-witness", "posner"))

    # the options every command shares, after its own ones
    for p in sub.choices.values():
        p.add_argument(
            "--format", choices=("json", "table"), default="json",
            help="output format (default json)",
        )
        p.add_argument(
            "--world-cap", type=parse_world_cap, default=os.environ.get(WORLD_CAP_ENV),
            help=f"override the world-space cap (also {WORLD_CAP_ENV})",
        )

    return parser


# ---------------------------------------------------------------------------
# Handlers.  Each returns a JSON-able dict with exact rational strings.


def cmd_rationalize(args: argparse.Namespace) -> dict[str, Any]:
    disposition = jb.serialize.disposition_from_jsonable(
        load_json(args.disposition_file), world_cap=args.world_cap
    )
    certificate = jb.dispositions.rationalize(disposition, args.theta)
    return jb.serialize.certificate_to_jsonable(certificate)


def cmd_verify(args: argparse.Namespace) -> dict[str, Any]:
    # a bad threshold is refused before either file is read
    theta = jb.dispositions.verification_theta(args.theta)
    disposition = jb.serialize.disposition_from_jsonable(
        load_json(args.disposition_file), world_cap=args.world_cap
    )
    charge_catalog, charge = jb.serialize.charge_document_from_jsonable(
        load_json(args.charge_file), world_cap=args.world_cap
    )
    jb.serialize.require_same_catalog(disposition.catalog, charge_catalog)
    result = jb.dispositions.verify_rationalization(disposition, theta, charge)
    doc: dict[str, Any] = {
        "theta": format_rational(theta),
        "holds": result.ok,
        "witness": None,
    }
    if result.witness is not None:
        doc["witness"] = list(disposition.catalog.transcript_labels(result.witness))
        doc["witness_posterior"] = format_rational(result.posteriors[result.witness])
    return doc


def cmd_extend(args: argparse.Namespace) -> dict[str, Any]:
    catalog, charge = jb.serialize.charge_document_from_jsonable(
        load_json(args.charge_file), world_cap=args.world_cap
    )
    event = jb.serialize.event_from_spec(catalog, args.event)
    given = jb.serialize.event_from_spec(catalog, args.given)
    extended = charge.extend_conditional(event, given, args.target)
    achieved = extended.conditional(event, given)
    return {
        "event": args.event,
        "given": args.given,
        "target": format_rational(args.target),
        "achieved": format_rational(achieved.value),
        "given_mass": format_rational(achieved.conditioning_mass),
        "charge": jb.serialize.charge_to_jsonable(catalog, extended),
    }


def cmd_threshold(args: argparse.Namespace) -> dict[str, Any]:
    if args.weights is not None:
        weights = jb.scoring.ScoreWeights(*args.weights)
        return {
            "kind": "belief-weights",
            "reward": format_rational(weights.reward),
            "penalty": format_rational(weights.penalty),
            "threshold": format_rational(weights.belief_threshold),
        }
    quadruple = jb.scoring.UtilityQuadruple(*args.quadruple)
    threshold = jb.scoring.verdict_threshold(quadruple)
    comparison = ">=" if quadruple.threshold_denominator > 0 else "<="
    return {
        "kind": "verdict-utilities",
        "utilities": {
            "convict_guilty": format_rational(quadruple.convict_guilty),
            "convict_innocent": format_rational(quadruple.convict_innocent),
            "acquit_guilty": format_rational(quadruple.acquit_guilty),
            "acquit_innocent": format_rational(quadruple.acquit_innocent),
        },
        "threshold": format_rational(threshold),
        "convict_when": f"P(guilt) {comparison} {format_rational(threshold)}",
    }


def cmd_odds(args: argparse.Namespace) -> dict[str, Any]:
    left, sep, right = args.prior.partition(":")
    if not sep:
        raise ParseError(f"--prior must look like 'a:b', got {args.prior!r}")
    prior = jb.analyses.Odds(*map(partial(rational, "--prior"), (left, right)))
    posterior = jb.analyses.posterior_odds(prior, args.lr)
    return {
        "prior": prior.display(),
        "likelihood_ratio": format_rational(args.lr),
        "posterior": posterior.display(),
        "posterior_probability": format_rational(posterior.probability),
    }


def cmd_rate(args: argparse.Namespace) -> dict[str, Any]:
    config = jb.analyses.RateBoundConfig(args.gamma, args.theta)
    bound = jb.analyses.min_convicting_testimony_count(config)
    doc: dict[str, Any] = {
        "gamma": format_rational(config.gamma),
        "theta": format_rational(config.theta),
        "steps": bound.steps,
        "log_bound_approx": bound.log_bound,
        "poi_violated": bound.poi_violated,
    }
    if args.build:
        cat = jb.worlds.TestimonyCatalog(
            tuple(f"t{i}" for i in range(bound.steps)), world_cap=args.world_cap
        )
        built = jb.analyses.build_ratio_bounded_convicting_prior(cat, config)
        doc["posterior_trail"] = [format_rational(p) for p in built.posteriors]
        doc["ratio_window"] = [
            format_rational(1 / (1 + config.gamma)),
            format_rational(1 + config.gamma),
        ]
        doc["within_bound"] = built.within_bound()
        doc["convicts"] = built.convicts()
    return doc


def cmd_scenario(args: argparse.Namespace) -> dict[str, Any]:
    if args.name == "spann":
        return scenario_spann()
    if args.name == "two-witness":
        return scenario_two_witness(args.world_cap)
    return scenario_posner(args.world_cap)


def scenario_spann() -> dict[str, Any]:
    space = jb.analyses.build_spann_space()
    return {
        "scenario": "spann",
        "size": len(space.ground),
        "paternity_size": len(space.paternity),
        "paternity_prior": format_rational(space.charge.measure(space.paternity)),
        "alibi_size": len(space.alibi_example),
        "alibi_expressible": jb.worlds.is_expressible(space.alibi_example, space.algebra),
    }


def scenario_two_witness(cap: int | None) -> dict[str, Any]:
    catalog = jb.worlds.TestimonyCatalog(("w1", "w2", "w3", "w4"), world_cap=cap)
    disposition = jb.dispositions.Disposition(
        catalog, (t for t in catalog.all_transcripts() if len(t) >= 2)
    )
    theta = Fraction(3, 4)
    certificate = jb.dispositions.rationalize(disposition, theta)
    verified = jb.dispositions.verify_rationalization(disposition, theta, certificate.prior)
    return {
        "scenario": "two-witness",
        "catalog": list(catalog.labels),
        "rule": "convict iff at least two witnesses testify",
        "theta": format_rational(theta),
        "rationalizable": bool(verified),
        "guilt_prior": format_rational(jb.dispositions.guilt_prior(certificate.prior, catalog)),
        "open_door": jb.dispositions.is_open_door(certificate.prior),
        "convicting_posterior": format_rational(theta),
        "acquitting_posterior": format_rational(1 - theta),
    }


def scenario_posner(cap: int | None) -> dict[str, Any]:
    catalog = jb.worlds.TestimonyCatalog(("t1", "t2"), world_cap=cap)
    theta = Fraction(3, 4)
    prior = jb.dispositions.posner_even_odds_prior(catalog, theta)
    convict = jb.dispositions.always_convict_nonempty(catalog)
    posteriors = jb.dispositions.verify_rationalization(convict, theta, prior).posteriors
    nonempty = {t: p for t, p in posteriors.items() if len(t)}
    return {
        "scenario": "posner",
        "catalog": list(catalog.labels),
        "theta": format_rational(theta),
        "guilt_prior": format_rational(jb.dispositions.guilt_prior(prior, catalog)),
        "min_nonempty_posterior": format_rational(min(nonempty.values())),
        "nonempty_posteriors": [
            {"transcript": list(catalog.transcript_labels(t)), "posterior": format_rational(p)}
            for t, p in nonempty.items()
        ],
    }


# ---------------------------------------------------------------------------
# Plumbing.


def parse_world_cap(text: str) -> int:
    """Convert --world-cap, or its JURYBAYES_WORLD_CAP default when the flag is absent."""
    try:
        return jb.worlds.check_world_cap(int(text))
    except ValueError as exc:
        raise ParseError(f"the world cap must be a nonnegative integer, got {text!r}") from exc


def load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=partial(_unique_keys, path))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _unique_keys(path: str, pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object as a dict; ParseError naming the first key it repeats,
    where ``json`` alone would keep the last copy without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"{path}: key {key!r} is repeated in one object")
            seen.add(key)
    return obj


def rational(flag: str, text: str) -> Fraction:
    """The rational literal given for the flag, or ParseError naming the flag."""
    try:
        return as_rational(text, name=flag)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def render(doc: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2)
    return render_table(doc)


_RATIONAL_STRING = re.compile(r"-?\d+/\d+")


def render_table(doc: dict[str, Any], indent: str = "") -> str:
    lines: list[str] = []
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(render_table(value, indent + "  "))
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            lines.append(f"{indent}{key}:")
            columns = list(value[0].keys())
            rows = [[_table_cell(v.get(c)) for c in columns] for v in value]
            widths = [
                max(len(col), *(len(r[i]) for r in rows)) for i, col in enumerate(columns)
            ]
            header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
            lines.append(f"{indent}  {header}")
            for row in rows:
                lines.append(
                    f"{indent}  " + "  ".join(c.ljust(w) for c, w in zip(row, widths))
                )
        else:
            lines.append(f"{indent}{key}: {_table_cell(value)}")
    return "\n".join(lines)


def _table_cell(value: Any) -> str:
    if isinstance(value, str) and _RATIONAL_STRING.fullmatch(value):
        return f"{value} (~{approx_decimal(Fraction(value))})"
    if isinstance(value, list):
        return "{" + ",".join(str(v) for v in value) + "}"
    if value is None:
        return "-"
    return str(value)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
