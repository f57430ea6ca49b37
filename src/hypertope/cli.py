"""Command-line front end: parse instance documents, run the chirality
checks, emit JSON or text reports.

Input is a small JSON or YAML document (see ``serialize_instance`` for the
canonical shape): JSON is read by ``json``, anything else by PyYAML's safe
loader, imported on first need.  Generators may be given as 0-based image
arrays or as cycle strings like ``"(0 1 2)(3 4)"``.  Exit codes: 0 chiral,
10 regular, 20 not a hypertope, 1 input error (bad document, bad option or
bad command line), 2 a size cap exceeded (the group's element cap or the
oracle's vertex cap).  A degree above the element cap in effect is refused
with exit 2 before any generator is read, so a short document cannot ask
for a gigabyte of image array.  Every error ends with one ``error: ...``
line on stderr.

A not-a-hypertope report names the first failed check in its failure code:
2 (ii), 1 (i), 3 (iii), or 5 when (ii), (i) and (iii) hold but the system
is not a C⁺-group (IC⁺ fails).  Code 4, (iv) failing, is the regular
verdict.  IC⁺ is computed once per run: the ``ic_plus`` field and the
decision share it.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .catalog import catalog_entry, catalog_names
from .cplus import (
    CHIRAL,
    REGULAR,
    ChiralityReport,
    build_cplus,
    check_ic_plus,
    is_chiral_hypertope,
    is_independent_generating_set,
)
from .oracle import VertexCapError, chirality_bruteforce
from .permcore import (
    DEFAULT_ELEMENT_CAP,
    GroupTooLargeError,
    Permutation,
    generate_group,
)

EXIT_CHIRAL = 0
EXIT_REGULAR = 10
EXIT_NOT_HYPERTOPE = 20
EXIT_INPUT_ERROR = 1
EXIT_CAP_EXCEEDED = 2

_KNOWN_FIELDS = {"name", "degree", "generators", "options", "comment"}
_OPTION_TYPES = {"k": int, "check_all_k": bool, "oracle": bool, "element_cap": int}


class InputError(ValueError):
    """Malformed instance document."""


class DegreeCapError(RuntimeError):
    """The document's degree is above the element cap in effect."""


@dataclass
class InstanceSpec:
    name: str
    degree: int
    generators: tuple[Permutation, ...]
    options: dict = field(default_factory=dict)


def parse_cycle_string(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation with 0-based points, e.g. "(0 1 2)(3 4)"."""
    body = text.strip()
    if body.count("(") != body.count(")"):
        raise InputError(f"unbalanced parentheses in cycle string {text!r}")
    moved: set[int] = set()
    cycles = []
    for chunk in body.replace(")", ")\x00").split("\x00"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise InputError(f"malformed cycle string {text!r}")
        try:
            points = [int(p) for p in chunk[1:-1].replace(",", " ").split()]
        except ValueError as exc:
            raise InputError(f"non-integer point in cycle string {text!r}") from exc
        for p in points:
            if not 0 <= p < degree:
                raise InputError(f"point {p} out of range for degree {degree}")
            if p in moved:
                raise InputError(f"point {p} repeated in cycle string {text!r}")
            moved.add(p)
        cycles.append(points)
    return Permutation.from_cycles(degree, cycles)


def _parse_generator(obj, degree: int) -> Permutation:
    if isinstance(obj, str):
        return parse_cycle_string(obj, degree)
    if isinstance(obj, (list, tuple)):
        if len(obj) != degree:
            raise InputError(f"image array of length {len(obj)} for degree {degree}")
        if any(type(x) is not int for x in obj):
            raise InputError("image array entries must be integers")
        try:
            return Permutation(obj)  # which checks the bijection
        except ValueError:
            raise InputError(f"image array {obj} is not a bijection on 0..{degree - 1}") from None
    raise InputError(f"generator must be an image array or cycle string, got {type(obj).__name__}")


def spec_from_mapping(doc: dict, flags: Optional[dict] = None) -> InstanceSpec:
    """The instance of a document.  Its ``options`` are checked as written;
    then ``flags``, the command line's options, replace those of the same
    name and the result is checked again, so a mistyped option is refused
    whatever the flags.  The degree is then checked against the element cap
    in effect, before any generator is read."""
    if not isinstance(doc, dict):
        raise InputError("instance document must be a mapping")
    unknown = set(doc) - _KNOWN_FIELDS
    if unknown:
        raise InputError(f"unknown field(s): {', '.join(sorted(unknown))}")
    try:
        degree = doc["degree"]
        raw_gens = doc["generators"]
    except KeyError as exc:
        raise InputError(f"missing required field {exc.args[0]!r}") from exc
    if type(degree) is not int or degree < 1:
        raise InputError("degree must be a positive integer")
    for key in ("name", "comment"):
        if key not in doc:
            continue
        if not isinstance(doc[key], str):
            raise InputError(f"{key} must be a string")
        try:
            doc[key].encode("utf-8")
        except UnicodeEncodeError as exc:
            # a lone surrogate, which JSON can escape: no output can print it
            raise InputError(f"{key} holds a lone surrogate at character {exc.start}") from exc
    if not isinstance(raw_gens, (list, tuple)):
        raise InputError("generators must be a sequence")
    options = {} if doc.get("options") is None else doc["options"]
    if not isinstance(options, dict):
        raise InputError("options must be a mapping")
    _check_options(options)
    if flags:
        options = {**options, **flags}
        _check_options(options)
    cap = options.get("element_cap", DEFAULT_ELEMENT_CAP)
    if degree > cap:
        raise DegreeCapError(f"degree {degree} exceeds the element cap {cap}")
    gens = tuple(_parse_generator(g, degree) for g in raw_gens)
    return InstanceSpec(doc.get("name", "unnamed"), degree, gens, dict(options))


def _check_options(options: dict) -> None:
    """Reject unknown options and values of the wrong type.

    Types are exact: a YAML boolean is not an integer and a string is not a
    boolean.  The error names the value's type, not the value, which YAML
    aliases can make arbitrarily large.
    """
    unknown = set(options) - set(_OPTION_TYPES)
    if unknown:
        raise InputError(f"unknown option(s): {', '.join(sorted(unknown))}")
    for key, value in options.items():
        if type(value) is not _OPTION_TYPES[key]:
            kind = "a boolean" if _OPTION_TYPES[key] is bool else "an integer"
            raise InputError(f"option {key} must be {kind}, got {type(value).__name__}")
    if options.get("element_cap", 1) < 1:
        raise InputError("option element_cap must be a positive integer")


# A valid document nests 3 collections deep (mapping, generators, image
# array).  libyaml's composer recurses in C and crashes the process on a
# document some 10⁵ levels deep, so the YAML path refuses one deeper than this
# before composing it.
_MAX_DEPTH = 64
_TOO_DEEP = f"document nests deeper than {_MAX_DEPTH} collections"


def _not_json(token: str):
    """A float, NaN or Infinity: no field takes one, so the document goes to
    the YAML path, which gives the value and the error it always has."""
    raise ValueError(token)


def parse_instance(text: str) -> InstanceSpec:
    """The instance of a document (``load_document``)."""
    return spec_from_mapping(load_document(text))


def load_document(text: str):
    """Read a JSON document with ``json``, anything else with PyYAML's safe
    loader, which is imported on first need.  Both give the same values for
    a JSON document, except that only ``json`` reads escaped non-BMP text."""
    try:
        return json.loads(text, parse_float=_not_json, parse_constant=_not_json)
    except RecursionError as exc:
        raise InputError(_TOO_DEEP) from exc
    except ValueError:
        return _load_yaml(text)


def _load_yaml(text: str):
    """The YAML path of ``load_document``.  Its loader is libyaml's
    ``CSafeLoader`` where PyYAML was built with it (the same constructor and
    resolver as ``SafeLoader``, so the same values, and five times faster on
    long image arrays), else ``SafeLoader``."""
    import yaml

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        # every nesting level takes one of these characters, so the depth
        # scan stays off ordinary documents
        if sum(map(text.count, "[{-:?")) > _MAX_DEPTH:
            depth = 0
            for event in yaml.parse(text, Loader=loader):
                if isinstance(event, yaml.CollectionStartEvent):
                    depth += 1
                    if depth > _MAX_DEPTH:
                        raise InputError(_TOO_DEEP)
                elif isinstance(event, yaml.CollectionEndEvent):
                    depth -= 1
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise InputError(f"unparseable document: {_yaml_problem(exc)}") from exc


def _yaml_problem(exc: Exception) -> str:
    """The parser's complaint and where it was made, on one line."""
    problem, mark = getattr(exc, "problem", None), getattr(exc, "problem_mark", None)
    if problem is None or mark is None:
        return " ".join(str(exc).split())
    return f"{problem} (line {mark.line + 1}, column {mark.column + 1})"


def serialize_instance(spec: InstanceSpec) -> str:
    """Canonical document: image arrays, flow style, fixed key order."""
    lines = [
        f"name: {json.dumps(spec.name)}",
        f"degree: {spec.degree}",
        "generators: " + json.dumps([list(g.images) for g in spec.generators]),
    ]
    if spec.options:
        body = ", ".join(f"{k}: {json.dumps(spec.options[k])}"
                         for k in sorted(spec.options))
        lines.append("options: {" + body + "}")
    return "\n".join(lines) + "\n"


# -- running ----------------------------------------------------------------

@dataclass
class Report:
    name: str
    ic_plus: bool
    independence: bool
    chirality: ChiralityReport
    oracle: Optional[ChiralityReport] = None
    agreement: Optional[bool] = None
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ic_plus": self.ic_plus,
            "independence": self.independence,
            "chirality": self.chirality.to_dict(),
            "oracle": self.oracle.to_dict() if self.oracle else None,
            "agreement": self.agreement,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }


def run(spec: InstanceSpec) -> Report:
    opts = spec.options
    cap = opts.get("element_cap", DEFAULT_ELEMENT_CAP)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    G = generate_group(spec.degree, spec.generators, cap=cap)
    S = build_cplus(G, spec.generators)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    ic = check_ic_plus(S)
    timings["ic_plus"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    indep = is_independent_generating_set(S)
    timings["independence"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    chirality = is_chiral_hypertope(S, k=opts.get("k", 0),
                                    check_all_k=opts.get("check_all_k", False))
    timings["chirality"] = time.perf_counter() - t0

    oracle = None
    agreement = None
    if opts.get("oracle"):
        t0 = time.perf_counter()
        oracle = chirality_bruteforce(S)
        timings["oracle"] = time.perf_counter() - t0
        agreement = oracle.verdict == chirality.verdict
    return Report(spec.name, ic, indep, chirality, oracle, agreement, timings)


def exit_code_for(report: Report) -> int:
    if report.chirality.verdict == CHIRAL:
        return EXIT_CHIRAL
    if report.chirality.verdict == REGULAR:
        return EXIT_REGULAR
    return EXIT_NOT_HYPERTOPE


# -- rendering --------------------------------------------------------------

def render_permutation(p: Permutation, one_based: bool = False) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    shift = 1 if one_based else 0
    return "".join("(" + " ".join(str(x + shift) for x in c) + ")" for c in cycles)


def format_text(spec: InstanceSpec, report: Report, one_based: bool = False) -> str:
    lines = [f"instance {report.name}  (degree {spec.degree}, "
             f"rank {len(spec.generators) + 1})"]
    for i, g in enumerate(spec.generators, start=1):
        lines.append(f"  alpha_{i} = {render_permutation(g, one_based)}")
    lines.append(f"  IC+ holds: {report.ic_plus}")
    lines.append(f"  independent generating set: {report.independence}")
    c = report.chirality
    lines.append(f"  verdict: {c.verdict}"
                 + (f"  (failure code {c.failing_condition})"
                    if c.failing_condition else ""))
    if c.orbit_sizes:
        lines.append(f"  chamber orbit sizes: {c.orbit_sizes[0]}, {c.orbit_sizes[1]}")
    if c.witness is not None:
        lines.append(f"  second-orbit witness: {render_permutation(c.witness, one_based)}")
    if c.cross_k_disagreement:
        lines.append(f"  cross-k disagreement: {c.cross_k_disagreement}")
    if report.oracle is not None:
        lines.append(f"  oracle verdict: {report.oracle.verdict}"
                     f"  (agreement: {report.agreement})")
    lines.append("  timings: " + ", ".join(f"{k} {v * 1000:.1f}ms"
                                           for k, v in report.timings.items()))
    return "\n".join(lines) + "\n"


# -- entry point ------------------------------------------------------------

def _build_parser():
    """The command-line parser.  argparse is imported here, not with the
    module, so that callers of ``parse_instance`` and ``run`` do not load it."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """Usage errors become input errors (exit 1), not argparse's exit 2."""

        def error(self, message: str):
            raise InputError(message)

    ap = _ArgumentParser(
        prog="hypertope",
        description="Decide whether the coset incidence system of (G, R) "
                    "is a chiral hypertope.")
    ap.add_argument("input", nargs="?", help="instance document ('-' for stdin)")
    ap.add_argument("--catalog", metavar="NAME",
                    help="run a built-in instance ('list' to enumerate)")
    ap.add_argument("--k", type=int, default=None, metavar="K",
                    help="type index for the k-dependent conditions (default 0)")
    ap.add_argument("--all-k", dest="check_all_k", action="store_const", const=True,
                    help="evaluate conditions (i) and (iii) for every k")
    ap.add_argument("--oracle", action="store_const", const=True,
                    help="also run the brute-force incidence-graph check")
    ap.add_argument("--element-cap", type=int, default=None, metavar="N",
                    help=f"group enumeration cap (default {DEFAULT_ELEMENT_CAP})")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--one-based", action="store_true",
                    help="render cycles with 1-based points in text output")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.catalog == "list":
            for name in catalog_names():
                print(name)
            return 0
        if args.catalog:
            doc = catalog_entry(args.catalog)
        elif args.input == "-":
            doc = load_document(sys.stdin.read())
        elif args.input:
            with open(args.input, encoding="utf-8") as document:
                doc = load_document(document.read())
        else:
            print("error: need an input document or --catalog NAME", file=sys.stderr)
            return EXIT_INPUT_ERROR
        flags = {name: value for name, value in vars(args).items()
                 if name in _OPTION_TYPES and value is not None}
        spec = spec_from_mapping(doc, flags)
        report = run(spec)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (GroupTooLargeError, VertexCapError, DegreeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=False))
    else:
        # a name that standard output cannot encode is written escaped
        text = format_text(spec, report, one_based=args.one_based)
        encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
        print(text.encode(encoding, "backslashreplace").decode(encoding), end="")
    return exit_code_for(report)


if __name__ == "__main__":
    sys.exit(main())
