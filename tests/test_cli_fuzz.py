"""Fuzzed instance documents through ``cli.main``.

Every document, however malformed, ends with a defined exit code (0 chiral,
10 regular, 20 not a hypertope, 1 input error, 2 a cap exceeded); an error
is exactly one ``error: ...`` line on stderr, and nothing ends in a
traceback.  Documents are random mappings with image arrays, cycle strings,
options and element caps, serialized as YAML or JSON or left as raw text,
and read from stdin with random command-line flags.
"""

import contextlib
import io
import json
import sys

import yaml
from hypothesis import event, given, settings, strategies as st

from hypertope.cli import main

EXIT_CODES = {0, 1, 2, 10, 20}

# small degrees keep every group, and the oracle on it, small
degrees = st.one_of(st.integers(-1, 6), st.sampled_from([True, None, "3", 2.5, [3]]))


def image_arrays(degree):
    n = degree if type(degree) is int and 0 <= degree <= 6 else 3
    return st.one_of(
        st.permutations(list(range(n))),
        st.lists(st.integers(-1, n + 1), max_size=n + 1),
        st.lists(st.sampled_from([0, 1, True, "1", 1.0, None]), max_size=n))


def cycle_strings(degree):
    n = degree if type(degree) is int and degree > 0 else 3
    cycle = st.lists(st.integers(-1, n), min_size=1, max_size=n).map(
        lambda c: "(" + " ".join(map(str, c)) + ")")
    return st.one_of(
        st.lists(cycle, max_size=3).map("".join),
        st.text(alphabet="(),0123456789 x-", max_size=12))


def generator_lists(degree):
    one = st.one_of(image_arrays(degree), cycle_strings(degree),
                    st.sampled_from([None, 7, {"a": 1}]))
    return st.one_of(st.lists(one, max_size=4), st.sampled_from([None, "(0 1)", 3]))


option_values = st.one_of(st.booleans(), st.integers(-3, 5), st.sampled_from(["yes", None, 1.5]))
options = st.dictionaries(
    st.sampled_from(["k", "check_all_k", "oracle", "element_cap", "threads"]),
    option_values, max_size=4).map(dict)
element_caps = st.one_of(st.integers(-2, 40), st.integers(41, 10_000))


def cycle_notation(images):
    """The disjoint cycles of an image array, as a cycle string."""
    seen, out = set(), []
    for start in range(len(images)):
        cycle = [start]
        while images[cycle[-1]] != start:
            cycle.append(images[cycle[-1]])
        if start not in seen and len(cycle) > 1:
            out.append("(" + " ".join(map(str, cycle)) + ")")
        seen.update(cycle)
    return "".join(out) or "()"


@st.composite
def well_formed(draw):
    """A document the parser accepts: permutations of a small degree, as
    image arrays or cycle strings, and options of the right types."""
    n = draw(st.integers(1, 6))
    gens = [list(p) if draw(st.booleans()) else cycle_notation(p)
            for p in draw(st.lists(st.permutations(range(n)), min_size=2, max_size=4))]
    opts = draw(st.fixed_dictionaries({}, optional={
        "k": st.integers(-1, 4), "check_all_k": st.booleans(), "oracle": st.booleans(),
        "element_cap": element_caps}))
    return {"name": "fuzz", "degree": n, "generators": gens, "options": opts}


@st.composite
def malformed(draw):
    """A mapping with fields of any type, missing or unknown."""
    degree = draw(degrees)
    doc = {"degree": degree, "generators": draw(generator_lists(degree)),
           "options": draw(options)}
    if draw(st.booleans()):
        doc["options"]["element_cap"] = draw(element_caps)
    for key in draw(st.lists(st.sampled_from(["degree", "generators", "options"]), max_size=2)):
        doc.pop(key, None)
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["name", "comment", "extra"]))] = draw(
            st.one_of(st.text(max_size=5), st.integers()))
    return doc


@st.composite
def documents(draw):
    doc = draw(st.one_of(well_formed(), malformed()))
    form = draw(st.sampled_from(["yaml", "json", "json", "yaml", "raw"]))
    if form == "yaml":
        return yaml.safe_dump(doc)
    if form == "json":
        return json.dumps(doc)
    return draw(st.one_of(st.text(max_size=40), st.sampled_from(
        ["", "- 1\n- 2\n", "degree: [\n", "{degree: 3, generators: [[1, 0, 2]]", "\x00"])))


flags = st.lists(st.one_of(
    st.sampled_from([["--all-k"], ["--oracle"], ["--format", "json"], ["--one-based"],
                     ["--bogus"], ["--k"]]),
    st.integers(-2, 4).map(lambda k: ["--k", str(k)]),
    element_caps.map(lambda cap: ["--element-cap", str(cap)])), max_size=2)


@settings(max_examples=200, deadline=None)
@given(documents(), flags)
def test_any_document_ends_with_a_defined_exit_code(text, argv):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["-"] + [a for flag in argv for a in flag])
    finally:
        sys.stdin = stdin
    event(f"exit code {code}")
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
    if code in (1, 2):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert out.getvalue() == ""
