"""CLI front end: parsing, serialization, exit codes, report stability."""

import gc
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings

import pytest
import yaml

from hypertope import cli, oracle
from hypertope.catalog import catalog_entry, catalog_names
from hypertope.corpus import build_corpus, torus_rotation_group
from hypertope.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_CHIRAL,
    EXIT_INPUT_ERROR,
    EXIT_NOT_HYPERTOPE,
    EXIT_REGULAR,
    InputError,
    main,
    parse_cycle_string,
    parse_instance,
    render_permutation,
    run,
    serialize_instance,
    spec_from_mapping,
)
from hypertope.permcore import Permutation

MINIMAL = 'name: "tiny"\ndegree: 3\ngenerators: [[1, 2, 0]]\n'


# -- parsing ----------------------------------------------------------------

def test_parse_minimal_document():
    spec = parse_instance(MINIMAL)
    assert spec.name == "tiny"
    assert spec.degree == 3
    assert spec.generators == (Permutation([1, 2, 0]),)
    assert parse_instance(MINIMAL + 'options: null\n') == spec  # null options are none


def test_cycle_string_notation():
    p = parse_cycle_string("(0 1 2)(3 4)", 5)
    assert list(p.images) == [1, 2, 0, 4, 3]
    assert parse_cycle_string("()", 3) == Permutation.identity(3)
    assert Permutation.from_cycles(3, [()]) == Permutation.identity(3)
    assert parse_cycle_string("(0, 2)", 3) == Permutation([2, 1, 0])


def test_cycle_string_errors():
    with pytest.raises(InputError):
        parse_cycle_string("(0 1", 3)
    with pytest.raises(InputError):
        parse_cycle_string("(0 1)(1 2)", 3)   # repeated point
    with pytest.raises(InputError):
        parse_cycle_string("(0 9)", 3)


def test_image_array_validation():
    with pytest.raises(InputError):
        parse_instance('degree: 3\ngenerators: [[0, 0, 1]]\n')
    with pytest.raises(InputError):
        parse_instance('degree: 3\ngenerators: [[0, 1]]\n')


def test_unknown_fields_rejected():
    with pytest.raises(InputError):
        parse_instance(MINIMAL + 'surprise: 1\n')
    with pytest.raises(InputError):
        parse_instance('degree: 3\ngenerators: [[1, 2, 0]]\noptions: {frob: 1}\n')


A4 = 'name: "a4"\ndegree: 4\ngenerators: ["(0 1 2)", "(1 2 3)"]\n'


MISTYPED = {
    "k-string": A4 + 'options: {k: "x"}\n',
    "k-bool": A4 + 'options: {k: true}\n',
    "oracle-string": A4 + 'options: {oracle: "no"}\n',
    "check_all_k-string": A4 + 'options: {check_all_k: "no"}\n',
    "cap-negative": A4 + 'options: {element_cap: -5}\n',
    "cap-float": A4 + 'options: {element_cap: 2.5}\n',
    "threads": A4 + 'options: {threads: 2}\n',
    # only a missing or null ``options`` means none
    "options-empty-list": A4 + 'options: []\n',
    "options-zero": A4 + 'options: 0\n',
    "options-false": A4 + 'options: false\n',
    "options-empty-string": A4 + 'options: ""\n',
    "degree-bool": 'degree: true\ngenerators: [[0]]\n',
    "images-bool": 'degree: 2\ngenerators: [[true, false]]\n',
    "name-int": 'name: 7\ndegree: 3\ngenerators: [[1, 2, 0]]\n',
    # YAML syntax errors: the parser's message spans several lines
    "truncated-flow": 'degree: 3\ngenerators: [[1, 0, 2]',
    "unbalanced-bracket": 'degree: 3\ngenerators: [[1, 0, 2]]]\n',
    "unclosed-mapping": '{degree: 3, generators: [[1, 0, 2]]\n',
    "unclosed-quote": 'name: "a4\ndegree: 4\n',
    "bad-indentation": 'degree: 3\n  generators: [[1, 0, 2]]\n',
    "control-character": 'degree: 3\x00\n',
}


# the flag that sets the option each option row mistypes
OPTION_FLAGS = {
    "k-string": ["--k", "0"],
    "k-bool": ["--k", "0"],
    "oracle-string": ["--oracle"],
    "check_all_k-string": ["--all-k"],
    "cap-negative": ["--element-cap", "100"],
    "cap-float": ["--element-cap", "100"],
    "options-empty-list": ["--all-k"],
    "options-zero": ["--all-k"],
    "options-false": ["--all-k"],
    "options-empty-string": ["--all-k"],
}
MISTYPED_RUNS = {**{name: (name, []) for name in MISTYPED},
                 **{f"{name}-with-{flags[0][2:]}": (name, flags)
                    for name, flags in OPTION_FLAGS.items()}}


@pytest.mark.parametrize("name, flags", MISTYPED_RUNS.values(), ids=MISTYPED_RUNS.keys())
def test_mistyped_document_is_one_line_input_error(tmp_path, capsys, name, flags):
    """The error is the one ``parse_instance`` raises, also when a flag sets
    the mistyped option: the document's options are checked before the
    flags replace them, and a falsy ``options`` is not read as none."""
    text = MISTYPED[name]
    doc = tmp_path / "bad.yaml"
    doc.write_text(text)
    with pytest.raises(InputError) as info:
        parse_instance(text)
    assert main([str(doc), *flags]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {info.value}\n"


def test_yaml_syntax_error_names_problem_and_position():
    with pytest.raises(InputError) as info:
        parse_instance('degree: 3\ngenerators: [[1, 0, 2]]]\n')
    message = str(info.value)
    assert message.startswith("unparseable document: ") and "\n" not in message
    assert message.endswith("(line 2, column 24)")


DOCUMENTS = [MINIMAL, A4, *MISTYPED.values(),
             'degree: 3\ngenerators: [[0, 0, 1]]\n', 'degree: 3\ngenerators: [[0, 1]]\n',
             MINIMAL + 'surprise: 1\n', 'name: "x"\ndegree: 3\n',
             'degree: 3\ngenerators: [[1, 2, 0]]\noptions: {frob: 1}\n',
             'degree: 5\ngenerators: ["(0 1 2)(3 4)"]\noptions: {k: 1, oracle: true}\n',
             'degree: 5\ngenerators: ["(0 1)", "(0 1)(2 4)", "(0 4 3 1)"]\n',
             'degree: 3\ngenerators: [[1, 2,',
             MINIMAL + 'options: {threads: 1}\n', 'degree: 5\ngenerators: ["(0 1 2)(3 4)"]\n',
             # JSON with a float, NaN or Infinity: read as YAML reads it
             '{"degree": 3, "generators": [[1, 2, 0]], "options": {"element_cap": 2.5}}',
             '{"degree": 3, "generators": [[1, 2, 0]], "options": {"k": 1e5}}',
             '{"degree": 3.0, "generators": [[1, 2, 0]]}',
             '{"degree": 3, "generators": [[1, 2, 0]], "options": {"k": NaN}}',
             '{"degree": 3, "generators": [[1, 2, 0]], "options": {"k": -Infinity}}']


def _outcome(parse, text):
    """The spec that ``parse`` reads from ``text``, or its error message."""
    try:
        return parse(text)
    except InputError as exc:
        return "error: " + str(exc)


def _yaml_path(text):
    """``parse_instance`` as it reads a document that is not JSON."""
    return spec_from_mapping(cli._load_yaml(text))


def _catalog_texts():
    """Every catalog entry, written out by ``serialize_instance`` and by
    ``json.dumps``."""
    return ([serialize_instance(spec_from_mapping(catalog_entry(name)))
             for name in catalog_names()]
            + [json.dumps(catalog_entry(name)) for name in catalog_names()])


def test_libyaml_and_python_loaders_give_the_same_spec(monkeypatch):
    """Every catalog entry, serialized and as JSON, and every document of
    this file parses to the same spec, or fails, on the YAML path under
    both loaders: libyaml's, the default, and PyYAML's own, which the path
    falls back to where PyYAML has no ``CSafeLoader``."""
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    texts = DOCUMENTS + _catalog_texts()

    def parse_all():
        out = []
        for text in texts:
            try:
                out.append(_yaml_path(text))
            except InputError:
                out.append(InputError)
        return out

    with_libyaml = parse_all()
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert parse_all() == with_libyaml


# JSON's surrogate escapes, which spell a character past U+FFFF as a pair:
# ``json`` reads them and libyaml refuses them, the one known difference of
# the two paths
SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def test_json_and_yaml_paths_give_the_same_spec():
    """``parse_instance`` reads every document as the YAML path alone does:
    the same spec (option types included), or an error with the same
    message.  The documents: every catalog entry, serialized and as JSON;
    every instance of ``build_corpus()`` as JSON; every document of this
    file but the deep ones, which run in a subprocess (``REFUSED``).  Only
    texts with non-BMP (surrogate) escapes are exempt."""
    corpus = [json.dumps({"name": inst.name, "degree": inst.group.degree,
                          "generators": [list(g.images) for g in inst.R]})
              for inst in build_corpus()]
    texts = DOCUMENTS + _catalog_texts() + corpus
    assert len(corpus) == 333
    checked = 0
    for text in texts:
        if SURROGATE_ESCAPE.search(text):
            continue
        fast, reference = _outcome(parse_instance, text), _outcome(_yaml_path, text)
        assert fast == reference, text
        if isinstance(fast, cli.InstanceSpec):
            assert repr(fast.options) == repr(reference.options), text
        checked += 1
    assert checked == len(texts) > 333


def _a4_document(name):
    entry = catalog_entry("a4-rot-tetrahedron")
    return json.dumps({"name": name, "degree": entry["degree"],
                       "generators": entry["generators"]})


def test_non_bmp_text_is_read_by_json_only():
    text = _a4_document("torus \U0001F600")
    assert SURROGATE_ESCAPE.search(text)
    assert parse_instance(text).name == "torus \U0001F600"
    with pytest.raises(InputError):
        _yaml_path(text)


def _python(*args, stdin=None, **variables):
    """Run ``python ARGS`` in a fresh interpreter that imports this checkout's
    ``hypertope``, so that a crash fails one test and not the test run.
    ``variables`` are added to its environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, encoding="utf-8", env=env, timeout=60)


def _run_cli(tmp_path, text, via, *flags):
    if via == "stdin":
        return _python("-m", "hypertope", "-", *flags, stdin=text)
    doc = tmp_path / "doc.json"
    doc.write_text(text, encoding="utf-8")
    return _python("-m", "hypertope", str(doc), *flags)


TOO_DEEP = "error: document nests deeper than 64 collections\n"
LONE_SURROGATE = "error: name holds a lone surrogate at character 1\n"
REFUSED = {
    # libyaml's composer recursed in C on these and crashed the process;
    # json reads the first, the YAML path the second
    "deep-flow": ("[" * 100_000 + "]" * 100_000, (), TOO_DEEP),
    "deep-block": ("- " * 100_000 + "1", (), TOO_DEEP),
    # a name that no output can print
    "lone-surrogate-text": (_a4_document("x\ud800"), ("--format", "text"), LONE_SURROGATE),
    "lone-surrogate-json": (_a4_document("x\ud800"), ("--format", "json"), LONE_SURROGATE),
    # three alias levels expand to 729 integers; the error names the type
    "aliased-option": ('degree: 3\ngenerators: [[1, 2, 0]]\noptions: {k: [&c [&b [&a '
                       '[0,0,0,0,0,0,0,0,0],*a,*a,*a,*a,*a,*a,*a,*a],*b,*b,*b,*b,*b,*b,*b,*b],'
                       '*c,*c,*c,*c,*c,*c,*c,*c]}\n', (),
                       "error: option k must be an integer, got list\n"),
}


@pytest.mark.parametrize("via", ["file", "stdin"])
@pytest.mark.parametrize("case", REFUSED.values(), ids=REFUSED.keys())
def test_refused_document_ends_in_one_error_line(tmp_path, case, via):
    text, flags, error = case
    result = _run_cli(tmp_path, text, via, *flags)
    assert (result.returncode, result.stdout, result.stderr) == (EXIT_INPUT_ERROR, "", error)
    assert len(result.stderr.encode("utf-8")) < 200


def test_text_report_escapes_what_stdout_cannot_encode(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(_a4_document("caf\u00e9"), encoding="utf-8")
    result = _python("-m", "hypertope", str(doc), "--format", "text", PYTHONIOENCODING="ascii")
    assert result.returncode == EXIT_REGULAR
    assert "Traceback" not in result.stderr
    assert result.stdout.startswith("instance caf\\xe9  (degree 4, rank 3)\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_non_bmp_name_is_decided(tmp_path, fmt):
    result = _run_cli(tmp_path, _a4_document("torus \U0001F600"), "stdin", "--format", fmt)
    assert (result.returncode, result.stderr) == (EXIT_REGULAR, "")
    if fmt == "json":
        assert json.loads(result.stdout)["name"] == "torus \U0001F600"
    else:
        assert result.stdout.startswith("instance torus \U0001F600  (degree 4, rank 3)")


@pytest.mark.parametrize("text, loads_yaml", [(_a4_document("a4"), False), (A4, True)],
                         ids=["json", "yaml"])
def test_yaml_is_imported_only_for_a_document_that_needs_it(text, loads_yaml):
    result = _python("-c", "import sys; from hypertope import cli; "
                     "cli.parse_instance(sys.argv[1]); print('yaml' in sys.modules)", text)
    assert (result.returncode, result.stdout) == (0, f"{loads_yaml}\n"), result.stderr


def test_threads_option_is_unknown(tmp_path, capsys):
    with pytest.raises(InputError, match="unknown option"):
        parse_instance(MINIMAL + 'options: {threads: 1}\n')
    assert main(["--catalog", "fix-code2-c4", "--threads", "1"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_missing_fields_rejected():
    with pytest.raises(InputError):
        parse_instance('name: "x"\ndegree: 3\n')


def test_serialize_parse_is_idempotent():
    for text in (MINIMAL,
                 'degree: 5\ngenerators: ["(0 1 2)(3 4)"]\noptions: {k: 1, oracle: true}\n'):
        once = serialize_instance(parse_instance(text))
        assert serialize_instance(parse_instance(once)) == once


def test_serialized_generators_are_image_arrays():
    spec = parse_instance('degree: 5\ngenerators: ["(0 1 2)(3 4)"]\n')
    assert "[[1, 2, 0, 4, 3]]" in serialize_instance(spec)


# -- running ----------------------------------------------------------------

def test_run_catalog_torus_report():
    spec = spec_from_mapping(catalog_entry("torus-4-4-1-2"))
    spec.options["oracle"] = True
    report = run(spec)
    assert report.ic_plus and report.independence
    assert report.chirality.verdict == "chiral-hypertope"
    assert report.agreement is True
    assert set(report.timings) >= {"build", "ic_plus", "independence", "chirality", "oracle"}


def test_catalog_code1_fixture_reports_code_1():
    spec = spec_from_mapping(catalog_entry("fix-code1-s5"))
    report = run(spec)
    assert report.chirality.failing_condition == 1


def test_catalog_covers_all_failure_codes():
    names = catalog_names()
    assert {"fix-code1-s5", "fix-code2-c4", "fix-code3-c3xc3", "fix-code4-a4",
            "fix-code5-s5", "torus-4-4-1-2", "s5-rank4-chiral",
            "a4-rot-tetrahedron"} <= set(names)


def test_catalog_torus_is_the_right_regular_image_of_s_and_st():
    """The frozen torus-4-4-1-2 generators are the right-regular images of
    R = (s, s t) for the order-20 ``torus_rotation_group``."""
    G, (s, t) = torus_rotation_group()
    spec = spec_from_mapping(catalog_entry("torus-4-4-1-2"))
    assert spec.degree == G.order
    assert [tuple(g.images) for g in spec.generators] == G.actions((s, s * t))


def test_catalog_entry_edits_do_not_reach_the_catalog():
    before = json.dumps(catalog_entry("fix-code1-s5"))
    entry = catalog_entry("fix-code1-s5")
    entry["generators"].append("(0 1)")
    entry["options"]["k"] = 0
    assert json.dumps(catalog_entry("fix-code1-s5")) == before


# -- main() exit codes ------------------------------------------------------

def test_exit_codes_from_catalog(capsys):
    assert main(["--catalog", "torus-4-4-1-2"]) == EXIT_CHIRAL
    assert main(["--catalog", "a4-rot-tetrahedron"]) == EXIT_REGULAR
    assert main(["--catalog", "fix-code2-c4"]) == EXIT_NOT_HYPERTOPE
    capsys.readouterr()


def test_non_cplus_system_is_not_hypertope_with_code_5(capsys):
    # S5, rank 4: (ii), (i) and (iii) hold for every k, IC⁺ does not
    assert main(["--catalog", "fix-code5-s5", "--all-k", "--oracle", "--format", "json"]
                ) == EXIT_NOT_HYPERTOPE
    blob = json.loads(capsys.readouterr().out)
    assert blob["ic_plus"] is False
    assert blob["chirality"]["verdict"] == "not-hypertope"
    assert blob["chirality"]["failing_condition"] == 5
    assert blob["chirality"]["per_condition"] == {"1": True, "2": True, "3": True, "5": False}
    assert blob["oracle"]["verdict"] == "not-hypertope"
    assert blob["agreement"] is True


def test_truncated_document_is_input_error(tmp_path, capsys):
    doc = tmp_path / "broken.yaml"
    doc.write_text('degree: 3\ngenerators: [[1, 2,')
    assert main([str(doc)]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_unknown_catalog_name_is_input_error(capsys):
    assert main(["--catalog", "no-such-instance"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_unknown_catalog_name_error_line_is_the_message(capsys):
    assert main(["--catalog", "nosuch"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: unknown catalog instance 'nosuch'; known: ")


def test_element_cap_exit_code(capsys):
    assert main(["--catalog", "torus-4-4-1-2", "--element-cap", "5"]) == EXIT_CAP_EXCEEDED
    capsys.readouterr()
    assert main(["--catalog", "torus-4-4-1-2", "--element-cap", "-5"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


DEGREE_11 = {"degree": 11, "generators": ["(0 1)", "(0 1 2 3 4 5 6 7 8 9 10)"]}


@pytest.mark.parametrize("options, argv, code, error", [
    ({"element_cap": 10}, [], EXIT_CAP_EXCEEDED, "degree 11 exceeds the element cap 10"),
    ({}, ["--element-cap", "10"], EXIT_CAP_EXCEEDED, "degree 11 exceeds the element cap 10"),
    ({"element_cap": 10}, ["--oracle"], EXIT_CAP_EXCEEDED, "degree 11 exceeds the element cap 10"),
    # the command line's cap is the one in effect: S11 then exceeds it in the closure
    ({"element_cap": 10}, ["--element-cap", "11"], EXIT_CAP_EXCEEDED, "closure exceeds"),
    ({"element_cap": 10}, ["--element-cap", "-1"], EXIT_INPUT_ERROR, "positive integer"),
])
def test_degree_above_the_element_cap_in_effect_is_refused(tmp_path, capsys, options, argv,
                                                           code, error):
    doc = tmp_path / "s11.json"
    doc.write_text(json.dumps(dict(DEGREE_11, options=options)))
    assert main([str(doc), *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and error in captured.err


def test_huge_degree_is_refused_before_any_allocation(capsys):
    """A 75-byte document asking for 10^9 points: refused on its degree, not
    after a list of 10^9 images."""
    text = '{"degree": 1000000000, "generators": ["(0 1)", "(1 2)"]}'
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    start = time.perf_counter()
    try:
        assert main(["-"]) == EXIT_CAP_EXCEEDED
    finally:
        sys.stdin = stdin
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: degree 1000000000 exceeds the element cap 100000\n")


def test_usage_error_is_input_error(capsys):
    assert main(["--catalog", "fix-code2-c4", "--bogus"]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_oracle_vertex_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "DEFAULT_VERTEX_CAP", 3)
    assert main(["--catalog", "fix-code2-c4", "--oracle"]) == EXIT_CAP_EXCEEDED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: incidence graph exceeds vertex cap 3\n"


def test_json_report_is_stable(tmp_path, capsys):
    doc = tmp_path / "inst.yaml"
    doc.write_text('name: "a4"\ndegree: 4\ngenerators: ["(0 1 2)", "(1 2 3)"]\n')
    outputs = []
    for _ in range(2):
        code = main([str(doc), "--format", "json", "--oracle"])
        out = capsys.readouterr().out
        blob = json.loads(out)
        blob["timings"] = None  # wall-clock noise is the only allowed variation
        outputs.append((code, blob))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == EXIT_REGULAR
    assert outputs[0][1]["agreement"] is True


def test_k_flag_changes_evaluation(tmp_path, capsys):
    entry = catalog_entry("fix-code1-s5")
    doc = tmp_path / "s5.yaml"
    doc.write_text(serialize_instance(
        spec_from_mapping({k: v for k, v in entry.items() if k != "options"})))
    # default k=0 reaches condition (iii); k=2 stops at condition (i)
    assert main([str(doc), "--format", "json"]) == EXIT_NOT_HYPERTOPE
    assert json.loads(capsys.readouterr().out)["chirality"]["failing_condition"] == 3
    assert main([str(doc), "--k", "2", "--format", "json"]) == EXIT_NOT_HYPERTOPE
    assert json.loads(capsys.readouterr().out)["chirality"]["failing_condition"] == 1
    assert main([str(doc), "--all-k", "--format", "json"]) == EXIT_NOT_HYPERTOPE
    blob = json.loads(capsys.readouterr().out)
    assert blob["chirality"]["failing_condition"] == 1
    assert blob["chirality"]["cross_k_disagreement"] is not None


def test_one_based_rendering():
    p = Permutation([1, 2, 0, 4, 3])
    assert render_permutation(p) == "(0 1 2)(3 4)"
    assert render_permutation(p, one_based=True) == "(1 2 3)(4 5)"
    assert render_permutation(Permutation.identity(4)) == "()"


def test_catalog_list(capsys):
    assert main(["--catalog", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == sorted(out)
    assert "torus-4-4-1-2" in out


def test_no_input_is_error(capsys):
    assert main([]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_document_file_is_closed(tmp_path, capsys):
    """Reading a document path leaves no unclosed file, on success and on
    an input error alike."""
    good, bad = tmp_path / "good.yaml", tmp_path / "bad.yaml"
    good.write_text(serialize_instance(spec_from_mapping(catalog_entry("torus-4-4-1-2"))))
    bad.write_text(MISTYPED["unclosed-mapping"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(good)]) == EXIT_CHIRAL
        assert main([str(bad)]) == EXIT_INPUT_ERROR
        gc.collect()
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
