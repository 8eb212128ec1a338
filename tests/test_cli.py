import argparse
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hstarkit import cli, families, io
from hstarkit.errors import DocumentError
from hstarkit.hstar import HStarVector, ehrhart_from_hstar
from hstarkit.io import (
    SimplexDocument,
    canonical_dumps,
    encode_int,
    load_simplex_document,
    parse_simplex_document,
)


def write_doc(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@contextmanager
def int_digit_limit(limit: int):
    """Run a block under the given int/str digit limit (0 lifts it)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


PROP43_DOC = {
    "schema_version": "1",
    "name": "explicit",
    "ambient_dim": 5,
    "vertices": [
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [1, 4, 7, 8, 9],
    ],
}

# Documents that once escaped the parser as a RecursionError, a silently
# overwritten field, a ValueError or a UnicodeDecodeError.
HOSTILE_DOCUMENTS = {
    "deep-nesting": b"[" * 100_000,
    "digit-limit": b'{"schema_version":"1","ambient_dim":1,"vertices":[[0],[' + b"1" * 5000 + b"]]}",
    "duplicate-key": json.dumps(PROP43_DOC)[:-1].encode() + b',"vertices":[[0],[1]]}',
    "invalid-utf8": b'{"schema_version":"1","name":"\xff","ambient_dim":1,"vertices":[[0],[1]]}',
}

# Strings int() reads as integers that encode_int never writes.
LOOSE_INTEGER_STRINGS = ["1_0", " 7 ", "+5", "\u0663"]

UNIT_TRIANGLE_DOC = {
    "schema_version": "1",
    "ambient_dim": 2,
    "vertices": [[0, 0], [1, 0], [0, 1]],
}

# Every integer flag, in a canonical invocation that exits 0: {v} is the
# flag's value and {tri} a unit triangle document.
INTEGER_FLAGS = {
    "ehrhart --n": ("ehrhart {tri} --n {v}", "2"),
    "extract-face --k": ("extract-face {tri} --k {v}", "3"),
    "gen unit --dim": ("gen unit --dim {v}", "2"),
    "gen delta_cm --c": ("gen delta_cm --c {v} --m 2", "2"),
    "gen delta_cm --m": ("gen delta_cm --c 2 --m {v}", "2"),
    "gen lemma41 --a": ("gen lemma41 --a {v} --b 1 --k 1 --l 2", "1"),
    "gen lemma41 --b": ("gen lemma41 --a 1 --b {v} --k 1 --l 2", "1"),
    "gen lemma41 --k": ("gen lemma41 --a 1 --b 1 --k {v} --l 2", "1"),
    "gen lemma41 --l": ("gen lemma41 --a 1 --b 1 --k 1 --l {v}", "2"),
    "gen prop43 --k": ("gen prop43 --k {v} --j 4", "3"),
    "gen prop43 --j": ("gen prop43 --k 3 --j {v}", "4"),
    "gen prop43 --p": ("gen prop43 --k 3 --j 4 --p {v}", "5"),
    "gen remark44 --k": ("gen remark44 --k {v}", "2"),
    "check-conditions --dim": ("check-conditions --hstar 1,7,1 --dim {v}", "2"),
    "search --k": ("search --k {v} --window weak --max-order 4 --max-dim 3", "2"),
    "search --max-order": ("search --k 2 --window weak --max-order {v} --max-dim 3", "4"),
    "search --max-dim": ("search --k 2 --window weak --max-order 4 --max-dim {v}", "3"),
    "search --limit": ("search --k 2 --window weak --max-order 4 --max-dim 3 --limit {v}", "1"),
}

# Every cap flag in a canonical invocation; {corpus} is a directory holding
# just the unit triangle document.
CAP_TEMPLATES = [
    "hstar {tri} --volume-cap {v}",
    "oracle-verify {tri} --scan-cap {v}",
    "verify-suite --corpus {corpus} --volume-cap {v}",
    "verify-suite --corpus {corpus} --scan-cap {v}",
]


def integer_flag_argv(template: str, value: str, **paths) -> list[str]:
    """argv of an INTEGER_FLAGS template with the value attached as --flag=value,
    so that argparse hands any value, even one starting with "-", to the type."""
    words = template.replace(" {v}", "={v}").split()
    return [word.format(v=value, **paths) for word in words]


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# Forms of a value v that int() reads as v and io.decode_int refuses.
LOOSE_FORMS = {
    "plus": "+{}".format,
    "space": " {}".format,
    "underscore": "0_{}".format,
    "arabic-indic": lambda v: v.translate(ARABIC_INDIC),
}


class TestDocuments:
    def test_round_trip(self):
        doc = SimplexDocument.from_json_dict(PROP43_DOC)
        again = parse_simplex_document(canonical_dumps(doc.to_json_dict()))
        assert again == doc

    def test_big_integers_become_strings(self):
        big = 2**60
        doc = SimplexDocument(1, ((0,), (big,)), name="huge")
        encoded = doc.to_json_dict()
        assert encoded["vertices"][1][0] == str(big)
        assert parse_simplex_document(canonical_dumps(encoded)) == doc

    def test_unknown_field_rejected(self):
        with pytest.raises(DocumentError):
            SimplexDocument.from_json_dict({**UNIT_TRIANGLE_DOC, "extra": 1})

    @pytest.mark.parametrize("pin", [(1, 0), (), (2,)], ids=str)
    def test_malformed_pin_refused_when_built_in_code(self, pin):
        # Every way in applies the rule, so no document can be written that
        # the parser would refuse.
        with pytest.raises(DocumentError, match="expected_hstar must start with 1"):
            SimplexDocument.from_simplex(families.unit_simplex(2), expected_hstar=pin)

    def test_pin_built_in_code_round_trips(self):
        doc = SimplexDocument.from_simplex(families.unit_simplex(2), expected_hstar=(1,))
        assert parse_simplex_document(canonical_dumps(doc.to_json_dict())) == doc

    def test_schema_version_required(self):
        bad = dict(UNIT_TRIANGLE_DOC)
        del bad["schema_version"]
        with pytest.raises(DocumentError):
            SimplexDocument.from_json_dict(bad)

    def test_booleans_rejected_as_integers(self):
        bad = {**UNIT_TRIANGLE_DOC, "vertices": [[0, 0], [True, 0], [0, 1]]}
        with pytest.raises(DocumentError):
            SimplexDocument.from_json_dict(bad)

    def test_over_long_integer_string_message_is_short(self):
        bad = {**UNIT_TRIANGLE_DOC, "vertices": [[0, 0], ["7" * 5000, 0], [0, 1]]}
        with int_digit_limit(4300), pytest.raises(DocumentError) as info:
            SimplexDocument.from_json_dict(bad)
        assert str(info.value) == (
            "integer string longer than the 4300-digit limit: "
            f"'{'7' * 39}... (5002 characters)"
        )

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("x" * 100, f"not an integer string: '{'x' * 39}... (102 characters)"),
            ([7] * 5000, f"expected integer, got [{'7, ' * 13}... (15000 characters)"),
        ],
        ids=["string", "list"],
    )
    def test_rejected_value_echo_is_truncated(self, entry, message):
        bad = {**UNIT_TRIANGLE_DOC, "vertices": [[0, 0], [entry, 0], [0, 1]]}
        with pytest.raises(DocumentError) as info:
            SimplexDocument.from_json_dict(bad)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", LOOSE_INTEGER_STRINGS)
    def test_loose_integer_strings_rejected(self, entry):
        # Only ASCII -?[0-9]+, the form encode_int writes, is an integer string.
        bad = {**UNIT_TRIANGLE_DOC, "vertices": [[0, 0], [entry, 0], [0, 1]]}
        with pytest.raises(DocumentError) as info:
            SimplexDocument.from_json_dict(bad)
        assert str(info.value) == f"not an integer string: {entry!r}"

    @given(st.integers(-(10**700), 10**700) | st.integers(-(10**5000), 10**5000))
    @settings(max_examples=50, deadline=None)
    def test_big_integers_encode_exactly_under_the_digit_limit(self, value):
        with int_digit_limit(640):
            encoded = encode_int(value)
        with int_digit_limit(0):
            assert int(encoded) == value

    @given(
        st.lists(
            st.lists(st.integers(-(2**60), 2**60), min_size=2, max_size=2),
            min_size=1,
            max_size=4,
        ),
        st.one_of(st.none(), st.text(max_size=10)),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, verts, name):
        doc = SimplexDocument(2, tuple(tuple(v) for v in verts), name=name)
        text = canonical_dumps(doc.to_json_dict())
        if len(verts) > 3:  # more vertices than a simplex in the plane has
            with pytest.raises(DocumentError):
                parse_simplex_document(text)
        else:
            assert parse_simplex_document(text) == doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def near_valid_documents(draw) -> str:
    """A valid document with one mutation: a field replaced, dropped or
    added, a vertex or an entry replaced, an integer list pinned as its
    expected h*, or the text cut or edited."""
    doc = json.loads(json.dumps(draw(st.sampled_from([PROP43_DOC, UNIT_TRIANGLE_DOC]))))
    kinds = ["field", "drop", "add", "vertex", "entry", "pin", "cut", "edit"]
    kind = draw(st.sampled_from(kinds))
    if kind == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON_VALUES)
    elif kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "add":
        doc[draw(st.sampled_from(["expected_hstar", "name", "extra"]))] = draw(JSON_VALUES)
    elif kind == "vertex":
        doc["vertices"][draw(st.integers(0, len(doc["vertices"]) - 1))] = draw(JSON_VALUES)
    elif kind == "entry":
        vertex = doc["vertices"][draw(st.integers(0, len(doc["vertices"]) - 1))]
        vertex[draw(st.integers(0, len(vertex) - 1))] = draw(
            JSON_VALUES
            | st.integers().map(str)
            | st.sampled_from(["1e3", " 7", "0x10", "-", *LOOSE_INTEGER_STRINGS])
        )
    elif kind == "pin":
        doc["expected_hstar"] = draw(st.lists(st.integers(-2, 3), max_size=5))
    text = json.dumps(doc)
    if kind == "cut":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif kind == "edit":
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(st.text(min_size=1, max_size=3)) + text[at + 1:]
    return text


class TestDocumentFuzz:
    @given(st.text(max_size=200) | near_valid_documents())
    @settings(max_examples=400, deadline=None)
    def test_parser_raises_only_document_errors(self, text):
        try:
            parse_simplex_document(text)
        except DocumentError:
            pass

    @given(st.binary(max_size=200) | near_valid_documents().map(str.encode))
    @settings(max_examples=200, deadline=None)
    def test_loader_raises_only_document_errors(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_bytes(data)
            try:
                load_simplex_document(path)
            except DocumentError:
                pass

    @given(st.binary(max_size=100) | near_valid_documents().map(str.encode))
    @settings(max_examples=12, deadline=None)
    def test_cli_exits_2_with_one_stderr_line(self, run_cli, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_bytes(data)
            try:
                load_simplex_document(path)
            except DocumentError:
                res = run_cli("hstar", str(path))
                assert (res.returncode, res.stdout) == (2, "")
                assert len(res.stderr.splitlines()) == 1, res.stderr
            else:
                assume(False)


@st.composite
def loose_integer_strings(draw) -> tuple[str, int]:
    """A decimal integer written in a form that int() reads and encode_int
    never writes, with its value."""
    sign = draw(st.sampled_from(["", "-"]))
    digits = str(draw(st.integers(10, 10**40)))
    value = int(sign + digits)
    kind = draw(st.sampled_from(["plus", "space", "underscore", "digit"]))
    if kind == "plus":
        sign, value = "+", abs(value)
    elif kind == "underscore":
        at = draw(st.integers(1, len(digits) - 1))
        digits = digits[:at] + "_" + digits[at:]
    elif kind == "digit":  # the same digit from another Unicode decimal block
        at = draw(st.integers(0, len(digits) - 1))
        base = draw(st.sampled_from([0x660, 0x6F0, 0x966, 0xFF10, 0x1D7CE]))
        digits = digits[:at] + chr(base + int(digits[at])) + digits[at + 1:]
    text = sign + digits
    if kind == "space":
        space = draw(st.sampled_from([" ", "\t", "\n", "\u00a0", "\u2003"]))
        text = draw(st.sampled_from([space + text, text + space]))
    return text, value


class TestArgvFuzz:
    @given(st.sampled_from(sorted(INTEGER_FLAGS)), st.integers(-(10**40), 10**40))
    @settings(max_examples=200, deadline=None)
    def test_canonical_integers_round_trip(self, flag, value):
        args = cli.build_parser().parse_args(
            integer_flag_argv(INTEGER_FLAGS[flag][0], str(value), tri="t.json"))
        assert getattr(args, flag.split("--")[-1].replace("-", "_")) == value

    @given(st.sampled_from(sorted(INTEGER_FLAGS)), loose_integer_strings())
    @settings(max_examples=300, deadline=None)
    def test_loose_integers_are_refused(self, flag, loose):
        text, value = loose
        assert int(text) == value  # Python's int reads it
        with pytest.raises(DocumentError, match="not an integer string"):
            cli.build_parser().parse_args(
                integer_flag_argv(INTEGER_FLAGS[flag][0], text, tri="t.json"))
        with pytest.raises(DocumentError, match="not a comma-separated integer list"):
            cli._parse_hstar_arg(f"1,{text},1")

    @given(st.sampled_from(sorted(INTEGER_FLAGS)), st.text(max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_any_text_is_read_canonically_or_refused(self, flag, text):
        argv = integer_flag_argv(INTEGER_FLAGS[flag][0], text, tri="t.json")
        canonical = re.fullmatch(r"-?[0-9]+", text)
        try:
            args = cli.build_parser().parse_args(argv)
        except DocumentError:
            assert not canonical
        else:
            assert canonical
            assert getattr(args, flag.split("--")[-1].replace("-", "_")) == int(text)


class TestIntegerFlags:
    @pytest.fixture
    def run_main(self, tmp_path, capsys, caplog):
        """Run the command line in process: exit code, stdout, stderr and
        the messages logged at ERROR."""
        tri = write_doc(tmp_path, "t.json", UNIT_TRIANGLE_DOC)

        def run(template: str, value: str) -> tuple[int, str, str, list[str]]:
            caplog.clear()
            code = cli.main(integer_flag_argv(template, value, tri=tri, corpus=tmp_path))
            out, err = capsys.readouterr()
            errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            return code, out, err, errors

        return run

    def test_every_integer_flag_is_listed(self):
        """Each flag the parser reads with decode_int, gen families included,
        is a key of INTEGER_FLAGS, so the checks here and in TestArgvFuzz
        reach it."""
        def flags(parser, prefix):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, subparser in action.choices.items():
                        yield from flags(subparser, f"{prefix}{name} ")
                elif action.type is io.decode_int:
                    yield from (prefix + option for option in action.option_strings)

        assert sorted(flags(cli.build_parser(), "")) == sorted(INTEGER_FLAGS)

    @pytest.mark.parametrize("flag", list(INTEGER_FLAGS))
    def test_canonical_value_is_accepted(self, run_main, flag):
        code, out, _, errors = run_main(*INTEGER_FLAGS[flag])
        assert (code, errors) == (0, []) and out

    @pytest.mark.parametrize("form", list(LOOSE_FORMS))
    @pytest.mark.parametrize("flag", list(INTEGER_FLAGS))
    def test_loose_value_is_refused(self, run_main, flag, form):
        template, value = INTEGER_FLAGS[flag]
        loose = LOOSE_FORMS[form](value)
        code, out, _, errors = run_main(template, loose)
        assert (code, out, errors) == (2, "", [f"not an integer string: {loose!r}"])

    @pytest.mark.parametrize("form", list(LOOSE_FORMS))
    @pytest.mark.parametrize("template", CAP_TEMPLATES)
    def test_loose_cap_is_refused(self, run_main, template, form):
        # A cap reads its value like every other integer flag: one error line.
        loose = LOOSE_FORMS[form]("50")
        code, out, err, errors = run_main(template, loose)
        assert (code, out, errors) == (2, "", [f"not an integer string: {loose!r}"])
        assert "usage:" not in err

    @pytest.mark.parametrize("value", ["100000000000000000000", "-1"])
    @pytest.mark.parametrize(
        "template", [template for template, _ in INTEGER_FLAGS.values()] + CAP_TEMPLATES,
        ids=list(INTEGER_FLAGS) + CAP_TEMPLATES)
    def test_extreme_value_exits_cleanly(self, run_main, template, value):
        # A value past sys.maxsize, or below every range, is an answer or a
        # refusal (exit 0, 2 or 3), never an escaped exception.
        code, _, _, _ = run_main(template, value)
        assert code in (0, 2, 3)

    @pytest.mark.parametrize("value", ["1000000000000", "100000000000000000000"])
    @pytest.mark.parametrize("template", [
        "extract-face {tri} --k {v}",
        "check-conditions --hstar 1 --dim {v}",
        "search --k {v} --window weak --max-order 4 --max-dim 2",
    ])
    def test_huge_k_and_dim_finish_at_once(self, run_main, template, value):
        # Only the stored coefficients are read, whatever the parameter.
        start = time.perf_counter()
        code, out, _, errors = run_main(template, value)
        assert (code, errors) == (0, []) and out
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("form", list(LOOSE_FORMS))
    def test_loose_hstar_part_is_refused(self, run_main, form):
        text = f"1,{LOOSE_FORMS[form]('7')},1"
        code, out, _, errors = run_main("check-conditions --hstar {v}", text)
        assert (code, out, errors) == (2, "", [f"not a comma-separated integer list: {text!r}"])

    @pytest.mark.parametrize("argv", [
        "check-conditions --hstar 1,1_0,+2",
        "ehrhart {tri} --n 1_0",
        "ehrhart {tri} --n \u0663",
        "extract-face {tri} --k +3",
    ])
    def test_loose_integer_exits_2_with_one_error_line(self, run_cli, tmp_path, argv):
        tri = write_doc(tmp_path, "t.json", UNIT_TRIANGLE_DOC)
        res = run_cli(*argv.format(tri=tri).split())
        assert (res.returncode, res.stdout) == (2, "")
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("ERROR hstarkit: ")


class TestReportCommands:
    def test_hstar(self, run_cli, tmp_path):
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        res = run_cli("hstar", str(path))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["hstar"] == [1, 0, 2, 4, 2]
        assert payload["volume"] == "9"
        assert payload["degree"] == 4
        assert payload["input"]["name"] == "explicit"

    def test_box_group(self, run_cli, tmp_path):
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        res = run_cli("box-group", str(path))
        payload = json.loads(res.stdout)
        assert payload["invariant_factors"] == [1, 1, 1, 1, 1, 9]
        assert payload["level_counts"] == {"0": 1, "2": 2, "3": 4, "4": 2}
        assert len(payload["elements"]) == 9
        assert payload["elements"][0] == ["0"] * 6

    def test_ehrhart(self, run_cli, tmp_path):
        path = write_doc(tmp_path, "t.json", UNIT_TRIANGLE_DOC)
        res = run_cli("ehrhart", str(path), "--n", "3")
        assert json.loads(res.stdout)["count"] == 10

    def test_ehrhart_count_beyond_the_digit_limit(self, run_cli, corpus_dir):
        n = 10**1200
        res = run_cli("ehrhart", str(corpus_dir / "unit-d4.json"), "--n", str(n))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["n"] == str(n)
        with int_digit_limit(0):
            assert int(payload["count"]) == ehrhart_from_hstar(HStarVector.of([1]), 4, n)

    def test_ehrhart_negative_dilation_exit_code(self, run_cli, tmp_path):
        path = write_doc(tmp_path, "t.json", UNIT_TRIANGLE_DOC)
        res = run_cli("ehrhart", str(path), "--n", "-1")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "ERROR hstarkit: dilation --n must be nonnegative, got -1\n"

    def test_internal_value_error_is_not_a_usage_error(self, tmp_path):
        # A ValueError from inside the library is a bug, not bad input.
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        script = (
            "import sys\n"
            "from hstarkit import cli, oracle\n"
            "def broken(*args, **kwargs):\n"
            "    raise ValueError('internal')\n"
            "oracle.count_lattice_points = broken\n"
            f"sys.exit(cli.main(['oracle-verify', {str(path)!r}]))\n"
        )
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode not in (0, 2)
        assert "ValueError: internal" in res.stderr

    @pytest.mark.parametrize("w, message", [
        ("[[0] * len(w) for _ in w]", "enumeration produced duplicate elements"),
        ("[[int(i == j) for j in range(len(w))] for i in range(len(w))]",
         "element with non-integral coordinate sum"),
    ], ids=["duplicates", "non-integral"])
    def test_failed_enumeration_check_exits_4(self, corpus_dir, w, message):
        # A broken Smith form is a bug, not bad input: exit 4, not 2.
        script = (
            "import sys\n"
            "from hstarkit import boxgroup, cli\n"
            "real = boxgroup.linalg.smith_normal_form\n"
            "def broken(rows):\n"
            "    factors, w = real(rows)\n"
            f"    return factors, {w}\n"
            "boxgroup.linalg.smith_normal_form = broken\n"
            f"sys.exit(cli.main(['hstar', {str(corpus_dir / 'tri-vol2.json')!r}]))\n"
        )
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (res.returncode, res.stdout) == (4, "")
        assert res.stderr == f"ERROR hstarkit: internal check failed: {message}\n"

    def test_oracle_verify_match(self, run_cli, tmp_path):
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        res = run_cli("oracle-verify", str(path))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["match"] is True and payload["heldout_ok"] is True

    def test_oracle_verify_corrupted_expectation(self, run_cli, tmp_path):
        doc = {**PROP43_DOC, "expected_hstar": [1, 0, 2, 4, 1]}
        path = write_doc(tmp_path, "bad.json", doc)
        res = run_cli("oracle-verify", str(path))
        assert res.returncode == 4
        assert json.loads(res.stdout)["expected_ok"] is False

    def test_parse_error_exit_code(self, run_cli, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_cli("hstar", str(path)).returncode == 2

    def test_not_a_simplex_exit_code(self, run_cli, tmp_path):
        doc = {"schema_version": "1", "ambient_dim": 2,
               "vertices": [[0, 0], [1, 1], [2, 2]]}
        path = write_doc(tmp_path, "dep.json", doc)
        assert run_cli("hstar", str(path)).returncode == 2

    def test_volume_cap_exit_code(self, run_cli, tmp_path):
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        res = run_cli("hstar", str(path), "--volume-cap", "5")
        assert res.returncode == 3
        assert "weight-group enumeration: normalized volume 9 exceeds cap 5" in res.stderr

    def test_k_is_checked_before_the_volume_cap(self, run_cli, tmp_path):
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        res = run_cli("extract-face", str(path), "--k", "0", "--volume-cap", "5")
        assert res.returncode == 2
        assert "window parameter k must be >= 1" in res.stderr

    @pytest.mark.parametrize("command", ["hstar", "box-group", "extract-face --k 3"])
    def test_scan_cap_only_where_a_scan_runs(self, run_cli, tmp_path, command):
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        res = run_cli(*command.split(), str(path), "--scan-cap", "100")
        assert res.returncode == 2 and res.stdout == ""

    @pytest.mark.parametrize(
        "command",
        ["hstar {path} --strict", "box-group {path} --json", "gen unit --dim 2 --json"],
    )
    def test_flags_only_where_they_act(self, run_cli, tmp_path, command):
        # --json belongs to check-conditions and --strict to extract-face.
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        res = run_cli(*command.format(path=path).split())
        assert res.returncode == 2 and res.stdout == ""

    @pytest.mark.parametrize("option", [
        "hstar {path} --volume-cap 0",
        "extract-face {path} --k 3 --volume-cap -2",
        "oracle-verify {path} --scan-cap -1",
        "oracle-verify {path} --volume-cap 0",
        "verify-suite --corpus {corpus} --volume-cap 0",
        "verify-suite --corpus {corpus} --scan-cap 0",
    ])
    def test_cap_below_one_is_refused_while_parsing(self, run_cli, tmp_path, option):
        # Every simplex has volume >= 1 and every scan at least one candidate.
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        res = run_cli(*option.format(path=path, corpus=tmp_path).split())
        assert (res.returncode, res.stdout) == (2, "")
        assert len(res.stderr.splitlines()) == 1 and "caps must be at least 1" in res.stderr

    def test_cap_of_one_is_accepted(self, run_cli, tmp_path):
        path = write_doc(tmp_path, "s.json", UNIT_TRIANGLE_DOC)
        assert run_cli("hstar", str(path), "--volume-cap", "1").returncode == 0
        res = run_cli("hstar", str(path), "--volume-cap", "one")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "ERROR hstarkit: not an integer string: 'one'\n"

    def test_scan_cap_exit_code(self, run_cli, tmp_path):
        path = write_doc(tmp_path, "s.json", PROP43_DOC)
        res = run_cli("oracle-verify", str(path), "--scan-cap", "100")
        assert res.returncode == 3
        # The cap is checked at the interpolation's top dilate, before any scan.
        assert "oracle scan of dilate 3: " in res.stderr
        assert " box candidates exceed scan cap 100" in res.stderr

    def test_missing_file_exit_code(self, run_cli):
        assert run_cli("hstar", "/nonexistent/x.json").returncode == 2

    def test_huge_vertex_array_is_refused_before_decoding(self, monkeypatch):
        decoded = []
        decode_int = io.decode_int

        def spy(value):
            decoded.append(value)
            return decode_int(value)

        monkeypatch.setattr(io, "decode_int", spy)
        many = {**UNIT_TRIANGLE_DOC, "vertices": [[0, 0]] * 10**6}
        with pytest.raises(DocumentError, match="1000000 vertices"):
            SimplexDocument.from_json_dict(many)
        long_vertex = {**UNIT_TRIANGLE_DOC, "vertices": [[0, 0], [0] * 10**6, [0, 1]]}
        with pytest.raises(DocumentError, match="vertex 1 has 1000000 entries"):
            SimplexDocument.from_json_dict(long_vertex)
        assert decoded == [2, 2]  # ambient_dim only

    @pytest.mark.parametrize("vertices", [[[0, 0]] * 10**5, [[0, 0], [0] * 10**5, [0, 1]]],
                             ids=["many-vertices", "long-vertex"])
    def test_huge_vertex_array_exit_code(self, run_cli, tmp_path, vertices):
        path = write_doc(tmp_path, "huge.json", {**UNIT_TRIANGLE_DOC, "vertices": vertices})
        res = run_cli("hstar", str(path))
        assert (res.returncode, res.stdout) == (2, "")
        assert len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("kind", sorted(HOSTILE_DOCUMENTS))
    def test_hostile_document_is_a_document_error(self, run_cli, tmp_path, kind):
        path = tmp_path / "hostile.json"
        path.write_bytes(HOSTILE_DOCUMENTS[kind])
        with pytest.raises(DocumentError):
            load_simplex_document(path)
        res = run_cli("hstar", str(path))
        assert (res.returncode, res.stdout) == (2, "")
        assert len(res.stderr.splitlines()) == 1
        assert run_cli("verify-suite", "--corpus", str(tmp_path)).returncode == 2

    @pytest.mark.parametrize("pin", [[1, 0], [], [2], [-1]], ids=str)
    def test_malformed_expected_hstar_is_a_document_error(self, run_cli, tmp_path, pin):
        # A computed h* starts with 1 and is trimmed, so such a pin could never
        # match: the document is refused, not reported as a mismatch.
        doc = {**UNIT_TRIANGLE_DOC, "expected_hstar": pin}
        with pytest.raises(DocumentError, match="expected_hstar must start with 1"):
            SimplexDocument.from_json_dict(doc)
        path = write_doc(tmp_path, "pinned.json", doc)
        res = run_cli("oracle-verify", str(path))
        assert (res.returncode, res.stdout) == (2, "")
        assert len(res.stderr.splitlines()) == 1
        res = run_cli("verify-suite", "--corpus", str(tmp_path))
        assert (res.returncode, res.stdout) == (2, "")


# sha256 of `hstarkit box-group <doc>` stdout for every corpus document. The
# bytes pin the element order and the JSON encoding of the whole report.
BOX_GROUP_STDOUT_SHA256 = {
    "delta-cm-c1-m1.json": "75404db87d622dcf4d3b307e6f455f5f70b47fe05bd281badeefe85b19fe76b6",
    "delta-cm-c2-m2.json": "8c657c60dcaae5521c0a39ca62c3276d06463c3cc31f5ad66015364dd368dc07",
    "delta-cm-c2-m3.json": "5db49625d30022403ed14d63c7d7bf317428a069c0f597c93c72584991239ffa",
    "delta-cm-c9-m2.json": "acc2573df3ebfb7dbd0a8f183f24c45a4fab4db2180969260373f4d36787675a",
    "join-delta23-delta17.json": "47d38983b9d3cdb0e6613cd1126a95a520150584e4c5b31ff277fc0e31a993db",
    "join-delta23-point.json": "0a311eafb24cdab423dd6381519b95a14bf645b7b67d23c656053f57039322eb",
    "join-seg2-seg3.json": "9d82a2d086304da883c0ca4dd6f71606ab65d0af65e160540e10082cd00c52ba",
    "prop43-k3-j4.json": "8741eadd0c8a8cf9d92ecbabfcdc6985013fc9a1f447da5e2850903a8b62690c",
    "prop43-k3-j5-p5.json": "2f1ae14b036756db7c02b9e3a17478e0b51825e58769ddf413beee866ef0b8f5",
    "prop43-k4-j5-p5.json": "c077c34f634cb4cfd2a88ddc214b58a7460d287ea854fe8c2098ada83f901e30",
    "remark44-k2.json": "23e82254ff73764a0e500a4419fdd641ae6b7da3e8a5044952d55ecd87333abc",
    "remark44-k3.json": "f3c1327caee549e02e7fec352e820f3f669e8010a459a392111eebef167abb25",
    "tri-scott-71.json": "be83885ba6f21768adfb41ec40eb0cbf2f26d4d9795d77314e85b7d655843995",
    "tri-vol2.json": "83798de3c6225fb94ff812a6be2b4374f517f2d8f729b9bcf40465bf67e9a75f",
    "unit-d4.json": "94b39d8ba76f970867c88570c4cdd95899c415a3bd952100ba7ac60a19cdaae0",
    "unit-triangle.json": "0905da4cebd920ebc228156b54841bbe49d235dabe4aee271f42b373ac943915",
}


class TestBoxGroupGolden:
    def test_pins_cover_the_corpus(self, corpus_dir):
        assert sorted(BOX_GROUP_STDOUT_SHA256) == sorted(p.name for p in corpus_dir.glob("*.json"))

    @pytest.mark.parametrize("name", sorted(BOX_GROUP_STDOUT_SHA256))
    def test_stdout_bytes(self, run_cli, corpus_dir, name):
        res = run_cli("box-group", str(corpus_dir / name))
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
        assert digest == BOX_GROUP_STDOUT_SHA256[name]


# sha256 of `hstarkit extract-face <doc> --k k` stdout for every corpus
# document and k = 1, 2, 3; every one of these runs exits 0. The bytes pin
# the whole certificate, lambda_prime elements included.
EXTRACT_FACE_STDOUT_SHA256 = {
    ("delta-cm-c1-m1.json", 1): "6cff13199e9faf1685ab384bc1fdb13e31be4e6f965dc5b63acd8b7288477f9a",
    ("delta-cm-c1-m1.json", 2): "7d63fd0c7591a99ba4f2541c3cb741eee4bc211219d16bc6b94613aa90b83257",
    ("delta-cm-c1-m1.json", 3): "0e7283d841d4cab0e3174fa4893aa5e8befed536d8a6bf3e2d27419aff8ddda5",
    ("delta-cm-c2-m2.json", 1): "46a4ccd65f2b400a8f5f94ffa70efdd677f59897c83e9f2d00a196b725ab1e1f",
    ("delta-cm-c2-m2.json", 2): "d829fc45764ef4fe481e9c06a78f8ce7b917cb4b052e925494d800da63094d39",
    ("delta-cm-c2-m2.json", 3): "7763dd00986d3eb17a2048dd6b4f0fa61a9e0c839d0f1c0f25ba80b1dbd8cc43",
    ("delta-cm-c2-m3.json", 1): "e8734e4ebdba24747bcbe75607e806993f15b9607079a8872946edeeddcee424",
    ("delta-cm-c2-m3.json", 2): "b10537930f757a8573d597eee984b982e1b08c65ded4543edb728fe899823a9d",
    ("delta-cm-c2-m3.json", 3): "579d2f3891d5a02473eb8e8bf56f51b518c011e5d7f6b1e01d3c96e02c66ac43",
    ("delta-cm-c9-m2.json", 1): "ff684b2923f2034daaf2e85d57684a55b63c65d0466a9fe5b7b4f1618ce013d9",
    ("delta-cm-c9-m2.json", 2): "3861b8d058dfdc3eecb243c13de06f97df40c14a9b269d186f32e1105b136d76",
    ("delta-cm-c9-m2.json", 3): "7ae8240b33d02b3908c4bfd1ae4c7608611890ce4a2f00e6eda6da34d8666d67",
    ("join-delta23-delta17.json", 1): "3272b3300ea12c4cee8317fd6b56425927f75e29c3bb97cf2cf412a9e6396103",
    ("join-delta23-delta17.json", 2): "fb074e008a831649978e91a0efd8e8aa1caaffbe1c539ed18c2ba6e10734002c",
    ("join-delta23-delta17.json", 3): "75d944a1a2cef0b72d3f40c781c5acf594fb37d5d632b7adf63ee258c82ebf38",
    ("join-delta23-point.json", 1): "ff19ef84ece5f282a35d56f081832dd14c096c68063052da1de33345b58bbb18",
    ("join-delta23-point.json", 2): "dd97b5c6b2ea2569b1f3fbe4ad6a2af64e082bbe5526c62d9fc0095b66a2a83c",
    ("join-delta23-point.json", 3): "4ea3f6dcb93104c21b2467baa62933a9379d7d453e7c71b2231feb1d1bab2b0b",
    ("join-seg2-seg3.json", 1): "5cc28d758d8c22d42a8b3fd3335f48d63e54c1774d4d8b398a80f6df19f1e6c4",
    ("join-seg2-seg3.json", 2): "1f0e9e806804b1bb26829b6acd093be7de4365f19b64436aafcb8cf7a32fddd4",
    ("join-seg2-seg3.json", 3): "ffdf02c5b9804e3eb6b461b5365ac9a157b490dd01231ce8ea58f6cdd95909fd",
    ("prop43-k3-j4.json", 1): "03798d8abd0851ea722f48e4f9a4c1849732218c498f64db30d95798f7ce8548",
    ("prop43-k3-j4.json", 2): "59267be14e368694607ae124e55c72b84a93c5dca0462820ae980e8b9cb85ae6",
    ("prop43-k3-j4.json", 3): "7fb33495eb8026c4e3e70bb5f59254c43bb896598d685e066fbe8cf69e84c079",
    ("prop43-k3-j5-p5.json", 1): "5afc9ac6fab550e70d27cc012bda1d265addba44c71f0aed70780e799439774d",
    ("prop43-k3-j5-p5.json", 2): "bfb68d22856e9efd69dbfc65d19112cf26793c08a9c8118ed150b2ed20814ce8",
    ("prop43-k3-j5-p5.json", 3): "84bf7c0dc2d0a87edf860224e5358ae348fa44aa8807b4f54a85fb396d12c67b",
    ("prop43-k4-j5-p5.json", 1): "0506fd4ee8118f667253169fd794c34a5c617b90d69cf013a2f508dafe3f9364",
    ("prop43-k4-j5-p5.json", 2): "d1b3575e6f47d7eb061f62f01ad508b92f4acb234c7e0b267de7db6c614e8fdb",
    ("prop43-k4-j5-p5.json", 3): "d3b9f5ce6a4c47f0189f060566c229cb088d7d662b41b919921c263c985c12a1",
    ("remark44-k2.json", 1): "e0b5dc0da61496f30557f2c1c3e2bed4197c9df022ce90b0c90d81176a651d2b",
    ("remark44-k2.json", 2): "1f680ffd1b89700a2f2628e7cee7471b2e440ddeb2d745675c42daa9355f8812",
    ("remark44-k2.json", 3): "916c30a02c93009498aaf648604f4e7eac8a3ea92b3ce8c2d95c5d79af1385f6",
    ("remark44-k3.json", 1): "a23ec0bb30067cf289989d231fd504335f6a92a7914e563b5aa72966178bacdb",
    ("remark44-k3.json", 2): "30c7a5c500db4cee1b8703038494d759dee474c68a002824a9501e2c8d7a2b21",
    ("remark44-k3.json", 3): "607e0dd46a3148eed19a393d2bdf9491c6fd923514a5d5abff7c1037b9818a62",
    ("tri-scott-71.json", 1): "70770a4566c527160c7cfa08c22f3e9ed3b98d18ba5b6a360ad3296384521a7f",
    ("tri-scott-71.json", 2): "1363e1144d851a343062be2b84a8fde51a729220ec8b2712d2195b3ab1a09d19",
    ("tri-scott-71.json", 3): "274788b93665691b105d6e3b2780c049423098ee74eab0bea6f8dcc7184ee7bc",
    ("tri-vol2.json", 1): "d4e492e5c9f213a4629d8a52aa1291028f12b9beaea86f6dd1806dd088b470ad",
    ("tri-vol2.json", 2): "5d7d125fe7798b82c79a2aff3bcdd4333aaccb2d8fe9699b282e48c75cd096f3",
    ("tri-vol2.json", 3): "90140fac39886927a37e2dc491ed5424aa6d5cc95d81ab72f2bb2578ff2367c7",
    ("unit-d4.json", 1): "ae0d744ac39f429ddac4e5b3e96c8b9d2f92448f91ce6fc8bda2de7b41456b81",
    ("unit-d4.json", 2): "6412b66aa356fc7b6472277068df106c230363a7d5494ce64b8801b7b7a7bb7f",
    ("unit-d4.json", 3): "966f9e3c34e92355dd916d7327218d571c211882cb1a5a443c9081998b191bf8",
    ("unit-triangle.json", 1): "a3477a9a3979f74448e424de53593dcf8873adb234108a8d38816f669878b275",
    ("unit-triangle.json", 2): "00ecd1cc40fa3ae5ae797cc00bc80ab4e8208cc2651984f860a578156cb366e5",
    ("unit-triangle.json", 3): "47d57f4d45d025d04383a4d271c4b0b13f55d637bd852f8fb34a7402e7ce1b00",
}


# sha256 of `hstarkit extract-face <doc> --k k --strict` stdout, the message
# it logs at ERROR ("" for none) and its exit code, for every corpus document
# and k = 1, 2, 3. Exit 5 (empty stdout) is --strict refusing a certificate
# whose hypothesis, zero window and k >= 3, fails.
EXTRACT_FACE_STRICT = {
    ("delta-cm-c1-m1.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 1): zero window holds but k < 3", 5),
    ("delta-cm-c1-m1.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 1): zero window holds but k < 3", 5),
    ("delta-cm-c1-m1.json", 3): (
        "2ea8c914d54191f7a1594209a4d1b981bf3af134d8804e7c226e339688d63e36",
        "", 0),
    ("delta-cm-c2-m2.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 2): zero window fails", 5),
    ("delta-cm-c2-m2.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 2): zero window holds but k < 3", 5),
    ("delta-cm-c2-m2.json", 3): (
        "4dacdd09b0f5433e1143619dcd1e6a095a216681a22136fc9c48e3def3ea4aa7",
        "", 0),
    ("delta-cm-c2-m3.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 0, 2): zero window holds but k < 3", 5),
    ("delta-cm-c2-m3.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 0, 2): zero window fails", 5),
    ("delta-cm-c2-m3.json", 3): (
        "4928fc728294afeddfcc3051e1ab5c769466648d9355770bb29194cd67e1c9d6",
        "", 0),
    ("delta-cm-c9-m2.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 9): zero window fails", 5),
    ("delta-cm-c9-m2.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 9): zero window holds but k < 3", 5),
    ("delta-cm-c9-m2.json", 3): (
        "94b6c6c563d64202d08208957a1cc6255d146d9a99038d81215521370a5ac6cd",
        "", 0),
    ("join-delta23-delta17.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 2): zero window holds but k < 3", 5),
    ("join-delta23-delta17.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 2): zero window fails", 5),
    ("join-delta23-delta17.json", 3): (
        "72b805193708bd652ae0bb6a5f2054a73a7994ac833a120eebdd1756c5ee7025",
        "", 0),
    ("join-delta23-point.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 0, 2): zero window holds but k < 3", 5),
    ("join-delta23-point.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 0, 2): zero window fails", 5),
    ("join-delta23-point.json", 3): (
        "bcf793f5b4aae20f21847f15547812359f3917ecd91867ee0bed6b8151c17a78",
        "", 0),
    ("join-seg2-seg3.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 3, 2): zero window fails", 5),
    ("join-seg2-seg3.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 3, 2): zero window holds but k < 3", 5),
    ("join-seg2-seg3.json", 3): (
        "c3068229bccf237aabbdb7fa939883e4bdb8fa2c0dd59a9d581aa2bed4e36268",
        "", 0),
    ("prop43-k3-j4.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 2, 4, 2): zero window fails", 5),
    ("prop43-k3-j4.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 2, 4, 2): zero window fails", 5),
    ("prop43-k3-j4.json", 3): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=3 with h*=(1, 0, 2, 4, 2): zero window fails", 5),
    ("prop43-k3-j5-p5.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 1, 3, 0, 3): zero window fails", 5),
    ("prop43-k3-j5-p5.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 1, 3, 0, 3): zero window fails", 5),
    ("prop43-k3-j5-p5.json", 3): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=3 with h*=(1, 0, 1, 3, 0, 3): zero window fails", 5),
    ("prop43-k4-j5-p5.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 1, 3, 0, 3): zero window fails", 5),
    ("prop43-k4-j5-p5.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 1, 3, 0, 3): zero window fails", 5),
    ("prop43-k4-j5-p5.json", 3): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=3 with h*=(1, 0, 1, 3, 0, 3): zero window fails", 5),
    ("remark44-k2.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 1, 0, 1): zero window fails", 5),
    ("remark44-k2.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 1, 0, 1): zero window fails", 5),
    ("remark44-k2.json", 3): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=3 with h*=(1, 0, 1, 0, 1): zero window fails", 5),
    ("remark44-k3.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 0, 0, 1, 0, 0, 1): zero window holds but k < 3", 5),
    ("remark44-k3.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 0, 0, 1, 0, 0, 1): zero window fails", 5),
    ("remark44-k3.json", 3): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=3 with h*=(1, 0, 0, 1, 0, 0, 1): zero window fails", 5),
    ("tri-scott-71.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 7, 1): zero window fails", 5),
    ("tri-scott-71.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 7, 1): zero window holds but k < 3", 5),
    ("tri-scott-71.json", 3): (
        "2c706f9a078950d9264733e6f99d62e40d38ac52ceb441a5567ef40013a5de64",
        "", 0),
    ("tri-vol2.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1, 1): zero window holds but k < 3", 5),
    ("tri-vol2.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1, 1): zero window holds but k < 3", 5),
    ("tri-vol2.json", 3): (
        "29550c38a7cf45fed92eb3263708d8449a86c1b8434ab10005a03107d35dd07e",
        "", 0),
    ("unit-d4.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1,): zero window holds but k < 3", 5),
    ("unit-d4.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1,): zero window holds but k < 3", 5),
    ("unit-d4.json", 3): (
        "032817dcd180f7ed3541b8a32d448ac7cbc8654cb01be30d2882bfb6f6f0f4a8",
        "", 0),
    ("unit-triangle.json", 1): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=1 with h*=(1,): zero window holds but k < 3", 5),
    ("unit-triangle.json", 2): (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "k=2 with h*=(1,): zero window holds but k < 3", 5),
    ("unit-triangle.json", 3): (
        "33f99277a189461ce2b5c9faf5c32a1bc7f43726bd6e5609711943a58ac7ee0a",
        "", 0),
}


class TestExtractFaceGolden:
    def test_pins_cover_the_corpus(self, corpus_dir):
        names = sorted(p.name for p in corpus_dir.glob("*.json"))
        assert sorted(EXTRACT_FACE_STDOUT_SHA256) == [(n, k) for n in names for k in (1, 2, 3)]
        assert sorted(EXTRACT_FACE_STRICT) == sorted(EXTRACT_FACE_STDOUT_SHA256)

    @pytest.mark.parametrize("name,k", sorted(EXTRACT_FACE_STRICT))
    def test_strict_stdout_stderr_and_exit_code(self, run_cli, corpus_dir, name, k):
        res = run_cli("extract-face", str(corpus_dir / name), "--k", str(k), "--strict")
        digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
        err = res.stderr.removeprefix("ERROR hstarkit: ").removesuffix("\n")
        assert (digest, err, res.returncode) == EXTRACT_FACE_STRICT[(name, k)]
        if res.returncode == 0:
            # A certificate --strict lets through differs only in its "strict" key.
            plain = res.stdout.replace('"strict":true', '"strict":false', 1).encode("utf-8")
            assert hashlib.sha256(plain).hexdigest() == EXTRACT_FACE_STDOUT_SHA256[(name, k)]

    @pytest.mark.parametrize("name,k", sorted(EXTRACT_FACE_STDOUT_SHA256))
    def test_stdout_bytes(self, run_cli, corpus_dir, name, k):
        res = run_cli("extract-face", str(corpus_dir / name), "--k", str(k))
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
        assert digest == EXTRACT_FACE_STDOUT_SHA256[(name, k)]


# sha256 of `hstarkit oracle-verify <doc>` stdout and its exit code for every
# corpus document. Exit 3 (empty stdout) is the default scan cap refusing a
# dilate's bounding box.
ORACLE_VERIFY_STDOUT_SHA256 = {
    "delta-cm-c1-m1.json": ("39133058b12e208b4e4d7a686ba95b2e117ee8634a36d93411714af7dd46fba6", 0),
    "delta-cm-c2-m2.json": ("c28fb8d359ccfd018d8b97725e0bea4094efb3433ac6e8c24f99f24e5bd41255", 0),
    "delta-cm-c2-m3.json": ("9265f151eff19e2f8f10eba706e80aef7425d311676b38504ed356c16cddc29d", 0),
    "delta-cm-c9-m2.json": ("ddfebe98735ed93d3ae84eaf30e9985c2b3b846d3250bd3c3fcd994fce4f5e1a", 0),
    "join-delta23-delta17.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "join-delta23-point.json": ("5fdd460857a7db80e9675dce38f13d6b065e9340b7fde93aec2641d718a42808", 0),
    "join-seg2-seg3.json": ("8899d2297c29675e148c2a0b76a3d40664e8b1cea073d80aeb1adfda8bebff4f", 0),
    "prop43-k3-j4.json": ("34a786a3ef7a938b37b66d5bc61bfa807d794c223406c0d583f08127fc75702d", 0),
    "prop43-k3-j5-p5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "prop43-k4-j5-p5.json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "remark44-k2.json": ("9415f74e94d4337b1b9c90d1191aa125dcd8c10727eb50f3ecb36675a0b172d5", 0),
    "remark44-k3.json": ("c805796df6614854750f88b4bf43c23afcd2f53e01acf985cb5228b79f91fb07", 0),
    "tri-scott-71.json": ("e1be486efbf884cfb51d1af3728d4cfc6cd1fa10fbfa890897a269663c05f119", 0),
    "tri-vol2.json": ("d341e65d081a9795d9a1d414f34ad7421d09bc16ce968d0e6f078a219b1e8983", 0),
    "unit-d4.json": ("cf7ba0924dee09cfd9ff7bd6c1ee2007daf407686fda03ac0e555692d82558f7", 0),
    "unit-triangle.json": ("a283ca2929eb26b1b5eb1bcf4c20ce32d5956cd7aadbd264ddb43b4a498ed69c", 0),
}

# sha256 of `hstarkit verify-suite --corpus corpus` stdout (exit 0): every
# record of every invariant, oracle counts included.
VERIFY_SUITE_STDOUT_SHA256 = "0b846ccb985adf89b3bd0ff6aa6517d913d0753087ff65016aeee581b9e98e54"


class TestOracleGolden:
    def test_pins_cover_the_corpus(self, corpus_dir):
        names = sorted(p.name for p in corpus_dir.glob("*.json"))
        assert sorted(ORACLE_VERIFY_STDOUT_SHA256) == names

    @pytest.mark.parametrize("name", sorted(ORACLE_VERIFY_STDOUT_SHA256))
    def test_oracle_verify_stdout_bytes(self, run_cli, corpus_dir, name):
        res = run_cli("oracle-verify", str(corpus_dir / name))
        digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
        assert (digest, res.returncode) == ORACLE_VERIFY_STDOUT_SHA256[name]

    def test_verify_suite_stdout_bytes(self, run_cli, corpus_dir):
        res = run_cli("verify-suite", "--corpus", str(corpus_dir))
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
        assert digest == VERIFY_SUITE_STDOUT_SHA256


def _embed_in_z7(simplex):
    """The image of a simplex in Z^5 under x -> A (x, 0, 0) + t, with A a
    unimodular 7x7 product of unit lower and unit upper triangular factors
    whose entries have about 30 digits, so A and t have about 60."""
    size = 7
    lower = [[int(i == j) if i <= j else (7 * i + 3 * j + 1) * 10**29 + i * j + 1
              for j in range(size)] for i in range(size)]
    upper = [[int(i == j) if i >= j else (5 * i + 11 * j + 2) * 10**29 + i + j
              for j in range(size)] for i in range(size)]
    a = [[sum(lower[i][m] * upper[m][j] for m in range(size)) for j in range(size)]
         for i in range(size)]
    shift = [(i + 1) * 10**59 + 12345 for i in range(size)]
    return [
        [sum(a[i][j] * x for j, x in enumerate(v)) + shift[i] for i in range(size)]
        for v in simplex.vertices
    ]


def _lower_dimensional_docs() -> dict:
    from hstarkit.families import prop43_instance, remark44_simplex

    remark = remark44_simplex(3)
    return {
        "skew-triangle-z3": (3, [[0, 0, 0], [1, 2, 2], [2, 1, 0]]),
        "tri-scott-71-in-z3": (3, [[0, 0, 0], [3, 0, 3], [0, 3, 3]]),
        "remark44-k3-face": (8, [list(remark.vertices[i]) for i in (0, 2, 3, 4, 5, 6, 7, 8)]),
        "prop43-k3-j4-in-z7": (7, _embed_in_z7(prop43_instance(3, 4))),
    }


LOWER_DIMENSIONAL_DOCS = _lower_dimensional_docs()

# sha256 of stdout and the exit code of each command on lower-dimensional
# documents, which no corpus document is. The oracle scans the bounding box
# of the triangular model, whose entries do not depend on the embedding, so
# every oracle-verify run here fits the default scan cap, the 60-digit Z^7
# embedding and its held-out dilate included.
LOWER_DIMENSIONAL_STDOUT_SHA256 = {
    ("prop43-k3-j4-in-z7", "hstar"): ("5431ff50044f10d5ef511291a19f43bd1c6d9f16ef2dea0064b687122888ff0e", 0),
    ("prop43-k3-j4-in-z7", "box-group"): ("5a2972d7b243c9d5c00a254e43f82fc500823d22b04a5a31fd6c46d1e3758094", 0),
    ("prop43-k3-j4-in-z7", "extract-face --k 1"): ("89c006f688f268e41a8244fec01d7f7d71b148df6dbaa29c5427000e7ac77fe6", 0),
    ("prop43-k3-j4-in-z7", "extract-face --k 2"): ("bbc79b6c3e0b9a72c974519e45aa4fd2908871478bcc80eefe90e88a2ee2ab6e", 0),
    ("prop43-k3-j4-in-z7", "extract-face --k 3"): ("0ac7b2056fd7cc558b8d5be8d3d7d4348f3dc2e3d8b160445c35dd9c9ea72ec2", 0),
    ("prop43-k3-j4-in-z7", "oracle-verify"): ("a0861778a5177c7e94acc38cd68475a8cf8f26a2f4497a1f5df4e8a608ee3a2b", 0),
    ("remark44-k3-face", "hstar"): ("ed88aee48b6cea5faf6bd652d105e0fe25da14e2f1f8fcdb4d75b167cc081978", 0),
    ("remark44-k3-face", "box-group"): ("dafcab0373545d0b467db6a1206ea1226ddf4b6ec34843f4e5e2126fd6bf12f4", 0),
    ("remark44-k3-face", "extract-face --k 1"): ("9b6f11784b36f1a16b432cd9b65519bf14fd0e38ea2fd91ad51c965c5074fb34", 0),
    ("remark44-k3-face", "extract-face --k 2"): ("ffa34cec2ccab1a8e0b32ab2a9093cbd21f6b12534a7981d4edf346a8b13eede", 0),
    ("remark44-k3-face", "extract-face --k 3"): ("82f759e819340795a4a30a75028c69adcd6336d1b0f6e63f7ee51ea48e43c30d", 0),
    ("remark44-k3-face", "oracle-verify"): ("9b0e45594f419759e06c0a98def9e58094228b3334699548cae934ed4f32bd18", 0),
    ("skew-triangle-z3", "hstar"): ("4e8546af1063ce14e299fe671c52c90f0108b34bcc608fce87ca043d511f63f5", 0),
    ("skew-triangle-z3", "box-group"): ("420a17d2e5e084a30766cd3497ad740858923f5dd3c647f57db6e62f04346ea4", 0),
    ("skew-triangle-z3", "extract-face --k 1"): ("064f2abd17e4a97706b9f21cd373962eba0fdc39db7107c49d53203fbb191634", 0),
    ("skew-triangle-z3", "extract-face --k 2"): ("0356c36a467a2b00c24456e75a450a8c6ba196d6e51be0fab2339134b23679cf", 0),
    ("skew-triangle-z3", "extract-face --k 3"): ("34246e67a20d4352acb380112e816f8fb0c85973652ada6d3ca20bd23bf1dbd0", 0),
    ("skew-triangle-z3", "oracle-verify"): ("1889f4d8c0dd9ccd1a8079f1e3fbb6f0e7cf2867a0e1410535d4a1e03fd94717", 0),
    ("tri-scott-71-in-z3", "hstar"): ("b1aa14596e68af34ab750e852d8a28ff46ff319ef40bd3d2a9c3fa88c368befe", 0),
    ("tri-scott-71-in-z3", "box-group"): ("eb5c5c11dc1eead09f1063876a0aaf3a6d5cd3ff70a78ea52774fb7896ff95e1", 0),
    ("tri-scott-71-in-z3", "extract-face --k 1"): ("8be61387f3c930fd10c180d675282c44fae86b0c4b7cad60414fee89d08c3cec", 0),
    ("tri-scott-71-in-z3", "extract-face --k 2"): ("0a8b71fcdcfc8b98ef1973204439f9b7d26b4ce09023d904a342920b47de4b5e", 0),
    ("tri-scott-71-in-z3", "extract-face --k 3"): ("d581ed691124020a63ab2389b771fabf4711adca99557402e55847d3eef9a8d5", 0),
    ("tri-scott-71-in-z3", "oracle-verify"): ("a431a9ec439ee306429a1edae3e7568c744c35627d822843574171b830ffe718", 0),
}


class TestLowerDimensionalGolden:
    @pytest.mark.parametrize("name,command", sorted(LOWER_DIMENSIONAL_STDOUT_SHA256))
    def test_stdout_bytes(self, run_cli, tmp_path, name, command):
        dim, verts = LOWER_DIMENSIONAL_DOCS[name]
        doc = SimplexDocument(dim, tuple(map(tuple, verts)), name=name)
        path = write_doc(tmp_path, f"{name}.json", doc.to_json_dict())
        subcommand, *options = command.split()
        res = run_cli(subcommand, str(path), *options)
        digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
        assert (digest, res.returncode) == LOWER_DIMENSIONAL_STDOUT_SHA256[(name, command)]


class TestExtractFaceCommand:
    def test_join_fixture(self, run_cli, corpus_dir):
        res = run_cli("extract-face", str(corpus_dir / "join-delta23-point.json"), "--k", "3")
        assert res.returncode == 0
        cert = json.loads(res.stdout)["certificate"]
        assert cert["face_hstar"] == [1, 0, 0, 2]
        assert cert["hstar_match"] is True
        assert cert["face_selector"] == [0, 1, 2, 3, 4, 5]

    def test_permissive_on_symmetric_simplex(self, run_cli, corpus_dir):
        res = run_cli("extract-face", str(corpus_dir / "remark44-k2.json"), "--k", "2")
        assert res.returncode == 0
        cert = json.loads(res.stdout)["certificate"]
        assert cert["window_ok"] is False
        assert cert["hstar_match"] is False
        assert cert["face_hstar"] == [1, 0, 1, 0, 1]

    def test_strict_exit_code(self, run_cli, corpus_dir):
        res = run_cli(
            "extract-face", str(corpus_dir / "remark44-k2.json"), "--k", "2", "--strict"
        )
        assert (res.returncode, res.stdout) == (5, "")
        assert res.stderr == "ERROR hstarkit: k=2 with h*=(1, 0, 1, 0, 1): zero window fails\n"

    def test_strict_refuses_when_window_fails(self, run_cli, corpus_dir):
        res = run_cli(
            "extract-face", str(corpus_dir / "prop43-k3-j4.json"), "--k", "3", "--strict"
        )
        assert (res.returncode, res.stdout) == (5, "")
        assert res.stderr == "ERROR hstarkit: k=3 with h*=(1, 0, 2, 4, 2): zero window fails\n"

    def test_strict_refuses_k_below_3(self, run_cli, corpus_dir):
        res = run_cli(
            "extract-face", str(corpus_dir / "unit-triangle.json"), "--k", "2", "--strict"
        )
        assert (res.returncode, res.stdout) == (5, "")
        assert res.stderr.endswith(": zero window holds but k < 3\n")

    def test_strict_passes_when_window_holds(self, run_cli, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(run_cli("gen", "delta_cm", "--c", "4", "--m", "3").stdout)
        res = run_cli("extract-face", str(path), "--k", "3", "--strict")
        assert (res.returncode, res.stderr) == (0, "")
        cert = json.loads(res.stdout)["certificate"]
        assert cert["strict"] is True and cert["hypothesis_met"] and cert["hstar_match"]

    def test_only_the_command_line_raises_hypothesis_not_met(self):
        package = Path(cli.__file__).parent
        raisers = [p.name for p in sorted(package.glob("*.py"))
                   if "raise HypothesisNotMetError" in p.read_text(encoding="utf-8")]
        assert raisers == ["cli.py"]

    def test_unit_simplex_single_vertex(self, run_cli, tmp_path):
        doc = {"schema_version": "1", "ambient_dim": 3,
               "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        path = write_doc(tmp_path, "u.json", doc)
        cert = json.loads(run_cli("extract-face", str(path), "--k", "3").stdout)["certificate"]
        assert cert["face_selector"] == [0]
        assert cert["face_hstar"] == [1]


# gen argv at parameter size v (w = v + 1), and the dimension it asks for.
HUGE_GEN = {
    "unit": ("gen unit --dim {v}", lambda v: v),
    "delta_cm": ("gen delta_cm --c 2 --m {v}", lambda v: 2 * v - 1),
    "lemma41": ("gen lemma41 --a 1 --b 1 --k {v} --l 1", lambda v: 2 * v + 1),
    "prop43": ("gen prop43 --k {v} --j {w}", lambda v: 2 * v + 1),
    "remark44": ("gen remark44 --k {v}", lambda v: 3 * v - 1),
}


class TestGen:
    @pytest.mark.parametrize("v", [10**4, 10**12])
    @pytest.mark.parametrize("family", sorted(HUGE_GEN))
    def test_huge_family_is_refused_at_once(self, capsys, caplog, family, v):
        template, dim = HUGE_GEN[family]
        start = time.perf_counter()
        code = cli.main(template.format(v=v, w=v + 1).split())
        elapsed = time.perf_counter() - start
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert (code, capsys.readouterr().out) == (2, "")
        bound = families.MAX_FAMILY_DIM
        assert errors == [f"dimension {dim(v)} exceeds the family bound MAX_FAMILY_DIM = {bound}"]
        assert elapsed < 1.0

    def test_remark44_exact_coordinates(self, run_cli):
        res = run_cli("gen", "remark44", "--k", "2")
        doc = json.loads(res.stdout)
        assert doc["vertices"][0] == [0, 0, 0, 0, 0]
        assert doc["vertices"][-1] == [2, 2, 2, 2, 3]
        assert doc["name"] == "remark44_k2"

    def test_explicit_counterexample(self, run_cli):
        doc = json.loads(run_cli("gen", "prop43", "--k", "3", "--j", "4").stdout)
        assert doc["vertices"][-1] == [1, 4, 7, 8, 9]

    def test_unit(self, run_cli):
        doc = json.loads(run_cli("gen", "unit", "--dim", "4").stdout)
        assert doc["ambient_dim"] == 4 and len(doc["vertices"]) == 5

    def test_delta_cm_name(self, run_cli):
        doc = json.loads(run_cli("gen", "delta_cm", "--c", "2", "--m", "3").stdout)
        assert doc["name"] == "delta_cm_c2_m3"

    def test_join_of_files(self, run_cli, tmp_path):
        left = json.loads(run_cli("gen", "delta_cm", "--c", "2", "--m", "3").stdout)
        right = json.loads(run_cli("gen", "unit", "--dim", "1").stdout)
        lpath = write_doc(tmp_path, "l.json", left)
        rpath = write_doc(tmp_path, "r.json", right)
        res = run_cli("gen", "join", "--left", str(lpath), "--right", str(rpath))
        doc = json.loads(res.stdout)
        assert doc["ambient_dim"] == 5 + 1 + 1

    def test_bad_parameters_exit_code(self, run_cli):
        assert run_cli("gen", "delta_cm", "--c", "0", "--m", "1").returncode == 2
        assert run_cli("gen", "prop43", "--k", "3", "--j", "6").returncode == 2
        res = run_cli("gen", "prop43", "--k", "3", "--j", "4", "--p", "4")
        assert (res.returncode, res.stdout) == (2, "")
        assert "p must be a prime >= 5" in res.stderr

    def test_gen_output_parses_and_verifies(self, run_cli, tmp_path):
        doc = json.loads(run_cli("gen", "delta_cm", "--c", "3", "--m", "2").stdout)
        path = write_doc(tmp_path, "g.json", doc)
        payload = json.loads(run_cli("hstar", str(path)).stdout)
        assert payload["hstar"] == [1, 0, 3]


# sha256 of `hstarkit gen <argv>` stdout and its exit code for every family,
# computed before the gen subparsers were built from one family table: each
# document under its default name and under --name x, each family's --help
# and `gen --help`. The join reads UNIT_TRIANGLE_DOC and PROP43_DOC.
GEN_STDOUT_SHA256 = {
    "--help":
        ("aa3956bad0207c725082056047261e204b44511c8a21966a0cc3079f6e03dd18", 0),
    "delta_cm --c 2 --m 3":
        ("edaf4f28678e0c818a1af47fd2676d225c270d371e62ccff281b9aa4004058c2", 0),
    "delta_cm --c 2 --m 3 --name x":
        ("ae1124ecb0e158bc84cffc68d44afa88bf2dfeaca9321118f1158849240a5300", 0),
    "delta_cm --help":
        ("35f7b68dd61b743ac5d8d4ca31602d0ccbd54a1ffe98cf43e2ae1cf2d4dffd4d", 0),
    "join --help":
        ("a6d8306b048f4abb030356198ca5e537dd368bad958e8268a192b6802bc2be55", 0),
    "join --left {left} --right {right}":
        ("b17890658c650817f5e7e8f8955c35a7e935baba0385ce8ddde936035828be17", 0),
    "join --left {left} --right {right} --name x":
        ("ce43c169656e98c2e5b4b4707bea24d05bec88f3b1ea819665670ea3ff590960", 0),
    "lemma41 --a 1 --b 2 --k 1 --l 2":
        ("83e49f85a1a81b9a9d02325e573cc47ffb6f1c5a4d12b8618aa2dc44ff136885", 0),
    "lemma41 --a 1 --b 2 --k 1 --l 2 --name x":
        ("d5c5b07a9e2e5c155a288e0d1bae04712b09b895f523f49555eda9a77232656e", 0),
    "lemma41 --help":
        ("61b216262f660ce653e0f1bf65440137187b96622520337afdd6d58a8ae69bd2", 0),
    "prop43 --help":
        ("4cd85ebfb6fea92abe45e5294793762d88b10d0faf4eaace97618a91dc631a52", 0),
    "prop43 --k 3 --j 5":
        ("8e933059c68c4d779089bc6c0053d4ad96047324bda37b8b11c40eea7927fad9", 0),
    "prop43 --k 3 --j 5 --name x":
        ("c27336e75a629fa1f9b68583f87dad671f01dc8645e7a0271819cafaafcad0ad", 0),
    "prop43 --k 3 --j 5 --p 7":
        ("a9d5d8dc2d9df91a4e3fe6b6d6cf8bedb1e9c428f9547f4c2e5408cbdc644251", 0),
    "remark44 --help":
        ("639727f188a26be7e7722de9220900b48fc75b502d1e161282348b1f35239fb2", 0),
    "remark44 --k 2":
        ("6434d38eed34021c490563411a67f8af296fdebcd4d1962c29caff8b7473c7be", 0),
    "remark44 --k 2 --name x":
        ("68464a56ffeee616fd2401715152b4499415f300da6674f3e272a52f31e8e63c", 0),
    "unit --dim 3":
        ("010b36c16c124c26b855c6b661a4a7df401d4a15b92381c33b70295c863d261a", 0),
    "unit --dim 3 --name x":
        ("b988e072659d190bc1ba532df95daf0798332a2c54e9530929d9c72df9090920", 0),
    "unit --help":
        ("1269048aac077adf05c939996dbb23f6445b495cc00b0262b1892c264d686889", 0),
}


class TestGenGolden:
    @pytest.mark.parametrize("argv", sorted(GEN_STDOUT_SHA256))
    def test_stdout_bytes(self, run_cli, tmp_path, argv):
        left = write_doc(tmp_path, "left.json", UNIT_TRIANGLE_DOC)
        right = write_doc(tmp_path, "right.json", PROP43_DOC)
        words = argv.format(left=left, right=right).split()
        # argparse wraps --help at the terminal width it reads from COLUMNS.
        res = run_cli("gen", *words, env={**os.environ, "COLUMNS": "80"})
        digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
        assert (digest, res.returncode) == GEN_STDOUT_SHA256[argv]


class TestTwentyOneDigitPrime:
    """p = 10**20 + 39 is prime; its primality test must not take the
    sqrt(p) steps of trial division."""

    def run(self, capsys, argv: str) -> tuple[int, str]:
        start = time.perf_counter()
        code = cli.main(argv.split())
        assert time.perf_counter() - start < 1.0
        return code, capsys.readouterr().out

    def test_check_conditions(self, capsys):
        code, out = self.run(capsys, "check-conditions --hstar 1,0,100000000000000000038 --json")
        entries = {e["name"]: e for e in json.loads(out)["conditions"]}
        assert code == 0
        assert entries["prime_symmetry"] == {
            "name": "prime_symmetry",
            "status": "inconclusive",
            "detail": {"p": str(10**20 + 39), "valid_center": 4},
        }

    def test_gen_prop43(self, capsys):
        code, out = self.run(capsys, "gen prop43 --k 3 --j 4 --p 100000000000000000039")
        assert code == 0
        assert json.loads(out)["name"] == "prop43_k3_j4_p100000000000000000039"

    def test_past_the_proved_bound_exits_2(self, capsys, caplog):
        code, out = self.run(capsys, "check-conditions --hstar 1,0,3317044064679887385961980")
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert (code, out) == (2, "")
        assert errors == [
            "primality test refused for a 82-bit number: "
            "it is proved exact only below 3317044064679887385961981"
        ]


class TestCheckConditions:
    def test_table_output(self, run_cli):
        res = run_cli("check-conditions", "--hstar", "1,7,1")
        assert res.returncode == 0
        assert "scott" in res.stdout and "satisfied" in res.stdout

    def test_json_scott_via_3(self, run_cli):
        res = run_cli("check-conditions", "--hstar", "1,7,1", "--json")
        payload = json.loads(res.stdout)
        scott = next(e for e in payload["conditions"] if e["name"] == "scott")
        assert scott["status"] == "satisfied" and scott["detail"]["via"] == 3

    def test_non_realizable_shape(self, run_cli):
        res = run_cli("check-conditions", "--hstar", "1,0,1,3", "--json")
        payload = json.loads(res.stdout)
        hhh = next(e for e in payload["conditions"] if e["name"] == "lemma_hhh")
        assert hhh["status"] == "not_realizable"
        assert hhh["detail"] == {"i": 2, "j": 3, "p": 5}

    def test_truncation_flagged(self, run_cli):
        res = run_cli("check-conditions", "--hstar", "1,0,2,4", "--json")
        payload = json.loads(res.stdout)
        sym = next(e for e in payload["conditions"] if e["name"] == "prime_symmetry")
        assert sym["status"] == "not_realizable"

    def test_eq1_not_applicable_on_a_point(self, run_cli):
        args = ("check-conditions", "--hstar", "1", "--dim", "0")
        res = run_cli(*args)
        assert res.returncode == 0
        assert "eq1                not_applicable\n" in res.stdout
        payload = json.loads(run_cli(*args, "--json").stdout)
        eq1 = next(e for e in payload["conditions"] if e["name"] == "eq1")
        assert (eq1["status"], eq1["detail"]) == ("not_applicable", {})

    @pytest.mark.parametrize("dim", ["1", "-3"])
    def test_dimension_below_the_degree_is_refused(self, run_cli, dim):
        res = run_cli("check-conditions", "--hstar", "1,7,1", "--dim", dim)
        assert (res.returncode, res.stdout) == (2, "")
        assert f"dimension {dim} is below the degree 2 of h*" in res.stderr

    def test_malformed_exit_code(self, run_cli):
        assert run_cli("check-conditions", "--hstar", "2,1").returncode == 2
        assert run_cli("check-conditions", "--hstar", "1,x").returncode == 2


def strict_loads(text: str):
    """JSON as a parser with 53-bit integers reads it: a larger integer
    number is refused, so only its decimal string gets through."""
    def parse_int(digits: str) -> int:
        value = int(digits)
        if abs(value) > 2**53:
            raise ValueError(f"integer past 2**53: {digits}")
        return value

    return json.loads(text, parse_int=parse_int)


class TestBigIntegerOutput:
    """Every integer on stdout past 2**53 is a decimal string, wherever it sits."""

    BIG = "100000000000000000000"

    def run(self, capsys, argv: list[str]) -> tuple[int, list]:
        code = cli.main(argv)
        return code, [strict_loads(line) for line in capsys.readouterr().out.splitlines()]

    def test_check_conditions(self, capsys):
        code, (out,) = self.run(capsys, ["check-conditions", "--json", "--dim", self.BIG,
                                         "--hstar", "1,0,100000000000000000038"])
        entries = {e["name"]: e["detail"] for e in out["conditions"]}
        assert code == 0 and out["dim"] == self.BIG
        assert entries["degree2"]["h2"] == "100000000000000000038"
        assert entries["prime_symmetry"]["p"] == "100000000000000000039"

    def test_extract_face(self, capsys, tmp_path):
        tri = write_doc(tmp_path, "t.json", UNIT_TRIANGLE_DOC)
        code, (out,) = self.run(capsys, ["extract-face", str(tri), "--k", self.BIG])
        assert code == 0 and out["certificate"]["k"] == self.BIG

    def test_search(self, capsys):
        code, hits = self.run(capsys, ["search", "--k", self.BIG, "--window", "weak",
                                       "--max-order", "4", "--max-dim", "2"])
        assert code == 0 and hits and all(hit["k"] == self.BIG for hit in hits)

    def test_verify_suite(self, capsys, corpus_dir, tmp_path):
        source = json.loads((corpus_dir / "tri-vol2.json").read_text())
        source["expected_hstar"] = [1, self.BIG]
        write_doc(tmp_path, "tri-big.json", source)
        code, records = self.run(capsys, ["verify-suite", "--corpus", str(tmp_path)])
        expected = next(r for r in records if r["invariant"] == "expected-hstar")
        assert code == 4 and expected["status"] == "fail"
        assert expected["detail"]["expected"] == [1, self.BIG]


class TestVerifySuite:
    def test_shipped_corpus_passes(self, run_cli, corpus_dir):
        res = run_cli("verify-suite", "--corpus", str(corpus_dir))
        assert res.returncode == 0, res.stderr
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        assert all(r["status"] in ("pass", "skip") for r in lines)
        instances = {r["instance"] for r in lines}
        assert "prop43-k3-j4.json" in instances

    def test_corrupted_fixture_fails(self, run_cli, corpus_dir, tmp_path):
        source = json.loads((corpus_dir / "tri-vol2.json").read_text())
        source["expected_hstar"] = [1, 2]
        write_doc(tmp_path, "tri-corrupt.json", source)
        res = run_cli("verify-suite", "--corpus", str(tmp_path))
        assert res.returncode == 4
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        bad = [r for r in lines if r["status"] == "fail"]
        assert bad and bad[0]["invariant"] == "expected-hstar"

    @pytest.mark.parametrize("text,error", [
        ('{"schema_version":"1","ambient_dim":2,"vertices":[[0,0],[1,1],[2,2]]}',
         "zbad.json: vertices are affinely dependent"),
        ('{"schema_version":"1",', "zbad.json: invalid JSON: "),
    ])
    def test_stopping_document_is_named(self, run_cli, corpus_dir, tmp_path, text, error):
        (tmp_path / "unit-triangle.json").write_text((corpus_dir / "unit-triangle.json").read_text())
        (tmp_path / "zbad.json").write_text(text)
        res = run_cli("verify-suite", "--corpus", str(tmp_path))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.startswith(f"ERROR hstarkit: {error}")
        assert len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("kind, reason", [("not-utf8", "not UTF-8: "),
                                              ("directory", "cannot read: ")])
    def test_unreadable_file_is_named_once(self, run_cli, corpus_dir, tmp_path, kind, reason):
        (tmp_path / "unit-triangle.json").write_text((corpus_dir / "unit-triangle.json").read_text())
        bad = tmp_path / "x.json"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"schema_version":"1","name":"\xff"}')
        for argv, name in [(("verify-suite", "--corpus", str(tmp_path)), "x.json"),
                           (("hstar", str(bad)), str(bad)),
                           (("gen", "join", "--left", str(bad), "--right", str(bad)), str(bad))]:
            res = run_cli(*argv)
            assert (res.returncode, res.stdout) == (2, "")
            assert res.stderr.startswith(f"ERROR hstarkit: {name}: {reason}")
            assert res.stderr.count("x.json") == 1 and len(res.stderr.splitlines()) == 1

    def test_empty_dir_exit_code(self, run_cli, tmp_path):
        assert run_cli("verify-suite", "--corpus", str(tmp_path)).returncode == 2

    def test_point_passes(self, run_cli, tmp_path):
        (tmp_path / "point.json").write_text(run_cli("gen", "unit", "--dim", "0").stdout)
        res = run_cli("verify-suite", "--corpus", str(tmp_path))
        assert res.returncode == 0, res.stdout
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        assert {r["status"] for r in lines} == {"pass", "skip"}
        facts = next(r for r in lines if r["invariant"] == "structural-facts")
        assert facts["status"] == "pass"


# sha256 of `hstarkit search <args>` stdout and its exit code, computed before
# `realize_cyclic_group` compared residue arrays: every hit of each run.
SEARCH_STDOUT_SHA256 = {
    "--k 2 --window weak --max-order 12 --max-dim 4":
        ("c353a5a119db131d35d752f9c710f0caf9ea993c845459bd6c34e0bedf9e3298", 0),
    "--k 3 --window weak --max-order 12 --max-dim 5":
        ("7175d924e1970dde4d78e35d9a54999e4dae2e95a82d07873a410f618ca0b232", 0),
    "--k 2 --window strong --max-order 20 --max-dim 4":
        ("aed2051bf3a378189ee5d5c61fce689bf36992a91ee8e8dbfb67aca2a2e14698", 0),
}


class TestSearch:
    @pytest.mark.parametrize("args", sorted(SEARCH_STDOUT_SHA256))
    def test_search_stdout_bytes(self, run_cli, args):
        res = run_cli("search", *args.split())
        digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
        assert (digest, res.returncode) == SEARCH_STDOUT_SHA256[args]

    def test_unimodular_only_at_order_one(self, run_cli):
        res = run_cli("search", "--k", "3", "--window", "strong",
                      "--max-order", "1", "--max-dim", "5")
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        assert len(lines) == 1
        assert lines[0]["order"] == 1 and lines[0]["hstar"] == [1]

    def test_weak_window_finds_symmetric_pattern(self, run_cli):
        res = run_cli("search", "--k", "2", "--window", "weak",
                      "--max-order", "3", "--max-dim", "5")
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        patterns = {tuple(r["hstar"]) for r in lines}
        assert (1, 0, 1, 0, 1) in patterns
        hit = next(r for r in lines if tuple(r["hstar"]) == (1, 0, 1, 0, 1))
        assert hit["face_realizes_truncation"] is False
        assert hit["generator"] == [1, 1, 1, 1, 1, 1]

    def test_strong_window_instances_all_realize(self, run_cli):
        res = run_cli("search", "--k", "3", "--window", "strong",
                      "--max-order", "8", "--max-dim", "4")
        lines = [json.loads(line) for line in res.stdout.splitlines()]
        assert lines
        assert all(r["face_realizes_truncation"] for r in lines)

    def test_out_file_and_limit(self, run_cli, tmp_path):
        out = tmp_path / "hits.jsonl"
        res = run_cli("search", "--k", "2", "--window", "weak", "--max-order", "4",
                      "--max-dim", "3", "--out", str(out), "--limit", "3")
        assert res.returncode == 0 and res.stdout == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_caps_validated(self, run_cli):
        res = run_cli("search", "--k", "3", "--window", "strong",
                      "--max-order", "20000", "--max-dim", "5")
        assert res.returncode == 2

    def test_invalid_parameters_leave_out_file_unchanged(self, run_cli, tmp_path):
        out = tmp_path / "hits.jsonl"
        out.write_text("earlier hits\n")
        res = run_cli("search", "--k", "0", "--window", "weak", "--max-order", "4",
                      "--max-dim", "3", "--out", str(out))
        assert res.returncode == 2
        assert out.read_text() == "earlier hits\n"

    def test_negative_limit_rejected(self, run_cli):
        res = run_cli("search", "--k", "2", "--window", "weak", "--max-order", "4",
                      "--max-dim", "3", "--limit", "-1")
        assert (res.returncode, res.stdout) == (2, "")
        assert "limit" in res.stderr


class TestDeterminism:
    def test_reports_byte_identical(self, run_cli, corpus_dir):
        path = str(corpus_dir / "prop43-k3-j4.json")
        a = run_cli("box-group", path)
        b = run_cli("box-group", path)
        assert a.stdout == b.stdout

    def test_logging_goes_to_stderr_only(self, run_cli, corpus_dir):
        import os

        env = dict(os.environ, HSTARKIT_LOG="debug")
        res = run_cli("hstar", str(corpus_dir / "unit-triangle.json"), env=env)
        assert res.returncode == 0
        json.loads(res.stdout)  # stdout is exactly one JSON payload
