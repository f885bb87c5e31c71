import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from collections import Counter

import pytest

import hyperring
from hyperring import cli, verifier
from hyperring.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEMANTIC,
    _load_corpus_file,
    emit_ring_spec,
    main,
)
from hyperring import make_zn_multiplier_ring, render_report, run_suite
from hyperring.corpus import DEFAULT_CONFIG, generate_corpus


@pytest.fixture()
def r6_file(tmp_path):
    path = tmp_path / "r6.json"
    path.write_text(
        json.dumps({"name": "R6", "kind": "zn_multiplier", "modulus": 6, "multipliers": [2]})
    )
    return str(path)


@pytest.fixture()
def r12_file(tmp_path):
    path = tmp_path / "r12.json"
    path.write_text(
        json.dumps({"name": "R12", "kind": "zn_multiplier", "modulus": 12, "multipliers": [2, 3]})
    )
    return str(path)


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([
        {
            "ring": {"kind": "zn_multiplier", "modulus": 6, "multipliers": [2], "name": "R6"},
            "ideal": "0,3",
            "alpha": "scale:3",
        },
        {
            "ring": {"kind": "zn_multiplier", "modulus": 5, "multipliers": [2], "name": "R5"},
            "alpha": "zero",
        },
    ]))
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write_spec(tmp_path, doc) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_valid_ring(self, r6_file):
        code, text = run_cli("validate", "--ring", r6_file)
        assert code == EXIT_OK
        assert "valid: true" in text
        assert "strongly_distributive: true" in text
        assert "degenerate_multiplier: true" in text

    def test_json_output(self, r6_file):
        code, text = run_cli("validate", "--ring", r6_file, "--json")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["valid"] is True
        assert doc["identity"] is None

    def test_corrupted_table_exit_1_with_witness(self, tmp_path):
        ring = make_zn_multiplier_ring(6, [2])
        doc = json.loads(emit_ring_spec(ring))
        doc["hyp"][1][1] = [5]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, text = run_cli("validate", "--ring", str(path))
        assert code == EXIT_SEMANTIC
        assert "witness" in text

    def test_malformed_document_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code, text = run_cli("validate", "--ring", str(path))
        assert code == EXIT_PARSE


class TestTrustBoundary:
    """Residue specs are trusted by construction, table specs are validated;
    the same ring prints the same properties either way."""

    @pytest.mark.parametrize("command", ["props", "validate"])
    @pytest.mark.parametrize("modulus, multipliers", [(12, [2, 3]), (8, [0, 2, 4, 6])])
    def test_residue_spec_prints_the_props_of_its_table_spec(
        self, tmp_path, command, modulus, multipliers
    ):
        residue = tmp_path / "residue.json"
        residue.write_text(
            json.dumps({"kind": "zn_multiplier", "modulus": modulus, "multipliers": multipliers})
        )
        doc = json.loads(emit_ring_spec(make_zn_multiplier_ring(modulus, multipliers)))
        doc.pop("identity", None)
        doc.pop("identity_flavor", None)
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        printed = []
        for path in (residue, table):
            code, text = run_cli(command, "--ring", str(path))
            assert code == EXIT_OK
            printed.append([
                line for line in text.splitlines()
                if not line.startswith(("ring:", "degenerate_multiplier:"))
            ])
        assert printed[0] == printed[1]
        assert len(printed[0]) >= 5


class TestErrorExits:
    """Bad input ends in an exit code and a one-line message; calling
    ``main`` directly means any exception that escapes fails the test."""

    @pytest.mark.parametrize("command", ["validate", "props"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "zn_multiplier", "modulus": 1, "multipliers": [1]},
            {"kind": "zn_multiplier", "modulus": 6, "multipliers": []},
        ],
        ids=["modulus-1", "no-multipliers"],
    )
    def test_bad_residue_ring_exit_1(self, tmp_path, command, doc):
        code, text = run_cli(command, "--ring", write_spec(tmp_path, doc))
        assert code == EXIT_SEMANTIC
        assert text.startswith("invalid: ")

    @pytest.mark.parametrize(
        "extra",
        [
            ["--ideal", '{"elements":"ab"}'],
            ["--ideal", '{"generators":null}'],
            ["--ideal", "0", "--alpha", '{"kind":"scale"}'],
            ["--ideal", "0", "--alpha", '{"kind":"map","image":"ab"}'],
        ],
        ids=["elements-not-ints", "generators-null", "scale-no-factor", "map-not-ints"],
    )
    def test_bad_json_spec_exit_2(self, r6_file, extra):
        code, text = run_cli("classify", "--ring", r6_file, *extra)
        assert code == EXIT_PARSE
        assert text.startswith("parse error: ")

    @pytest.mark.parametrize(
        "identity, code, prefix",
        [
            ("x", EXIT_PARSE, "parse error: bad table spec: "),
            ([1], EXIT_PARSE, "parse error: bad table spec: "),
            (5, EXIT_SEMANTIC, "invalid: "),
            (-1, EXIT_SEMANTIC, "invalid: "),
        ],
        ids=["not-a-number", "a-list", "past-the-order", "negative"],
    )
    def test_bad_table_identity(self, tmp_path, identity, code, prefix):
        doc = json.loads(emit_ring_spec(make_zn_multiplier_ring(2, [1])))
        doc["identity"] = identity
        got, text = run_cli("validate", "--ring", write_spec(tmp_path, doc))
        assert got == code
        assert text.startswith(prefix)

    @pytest.mark.parametrize("command", ["radical", "classify"])
    def test_enumeration_cap_exit_1(self, tmp_path, command):
        doc = {"kind": "zn_multiplier", "modulus": 18, "multipliers": [1, 17]}
        code, text = run_cli(command, "--ring", write_spec(tmp_path, doc), "--ideal", "gen:2")
        assert code == EXIT_SEMANTIC
        assert text.startswith("invalid: ") and "capped" in text

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "zn_multiplier", "modulus": 10**6, "multipliers": [1]},
            {"kind": "table", "order": 257},
        ],
        ids=["zn-modulus", "table-order"],
    )
    def test_parsed_order_cap_exit_1_before_any_table(self, tmp_path, monkeypatch, doc):
        # Building the table of a 10**6 ring would exhaust memory, so the
        # builders fail the test at once instead.
        def no_table(*_args, **_kwargs):
            raise AssertionError("a table was built for an over-cap ring")

        monkeypatch.setattr(cli, "make_zn_multiplier_ring", no_table)
        monkeypatch.setattr(cli, "validate_structure", no_table)
        path = write_spec(tmp_path, doc)
        start = time.perf_counter()
        code, text = run_cli("validate", "--ring", path)
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_SEMANTIC
        assert "exceeds the cap 256" in text


class TestClassify:
    def test_alpha_prime_true(self, r6_file):
        code, text = run_cli(
            "classify", "--ring", r6_file, "--ideal", "0,3", "--alpha", "scale:3"
        )
        assert code == EXIT_OK
        assert "alpha_prime: true" in text

    def test_alpha_prime_false_with_witness(self, r6_file):
        code, text = run_cli(
            "classify", "--ring", r6_file, "--ideal", "0,2,4", "--alpha", "scale:3"
        )
        assert code == EXIT_OK
        assert "alpha_prime: false" in text
        assert "alpha_prime_witness: (1,1)" in text

    def test_not_a_hyperideal(self, r6_file):
        code, text = run_cli("classify", "--ring", r6_file, "--ideal", "0,1")
        assert code == EXIT_OK
        assert "hyperideal: false" in text

    def test_generators_spec(self, r12_file):
        code, text = run_cli("classify", "--ring", r12_file, "--ideal", "gen:3")
        assert code == EXIT_OK
        assert "elements: {0,3,6,9}" in text


class TestSetCommands:
    def test_radical(self, r6_file):
        code, text = run_cli("radical", "--ring", r6_file, "--ideal", "0")
        assert code == EXIT_OK
        assert "radical: {0,3}" in text
        assert "forms_agree: true" in text

    def test_alpharadical(self, r6_file):
        code, text = run_cli(
            "alpharadical", "--ring", r6_file, "--ideal", "0", "--alpha", "scale:3"
        )
        assert code == EXIT_OK
        assert "alpha_radical: {0,1,2,3,4,5}" in text

    def test_nil(self, r6_file):
        code, text = run_cli("nil", "--ring", r6_file, "--alpha", "scale:3")
        assert code == EXIT_OK
        assert "nilradical: {0,3}" in text
        assert "alpha_nilradical: {0,1,2,3,4,5}" in text

    def test_endos(self, r6_file):
        code, text = run_cli("endos", "--ring", r6_file)
        assert code == EXIT_OK
        assert "count: 4" in text
        assert "endo scale3: 0.3.0.3.0.3" in text


class TestConstructionsRoundTrip:
    def test_quotient_round_trips_byte_identically(self, r6_file, tmp_path):
        code, emitted = run_cli("quotient", "--ring", r6_file, "--ideal", "0,3")
        assert code == EXIT_OK
        path = tmp_path / "quotient.json"
        path.write_text(emitted)
        code, text = run_cli("validate", "--ring", str(path))
        assert code == EXIT_OK
        # emit -> parse -> validate -> re-emit is byte-identical
        from hyperring.cli import load_ring

        reloaded = load_ring(str(path))
        assert emit_ring_spec(reloaded) == emitted

    def test_product_emits_and_validates(self, tmp_path):
        small = tmp_path / "z2.json"
        small.write_text(
            json.dumps({"kind": "zn_multiplier", "modulus": 2, "multipliers": [1], "name": "Z2"})
        )
        code, emitted = run_cli("product", "--ring", str(small), "--ring2", str(small))
        assert code == EXIT_OK
        path = tmp_path / "product.json"
        path.write_text(emitted)
        code, _text = run_cli("validate", "--ring", str(path))
        assert code == EXIT_OK
        from hyperring.cli import load_ring

        assert emit_ring_spec(load_ring(str(path))) == emitted


class TestVerify:
    def test_empty_corpus_file(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("[]")
        report = tmp_path / "report.json"
        code, text = run_cli(
            "verify", "--corpus", str(path), "--report", str(report)
        )
        assert code == EXIT_OK
        assert report.read_text() == "[]\n"
        assert "total records=0" in text

    def test_file_corpus_with_instances(self, corpus_file):
        code, text = run_cli("verify", "--corpus", corpus_file)
        assert code == EXIT_OK
        assert "T22 holds=1" in text
        assert "T11 holds=0 fails=1" in text

    def test_strict_passes_when_failures_ledgered(self, tmp_path):
        corpus = [
            {
                "ring": {"kind": "zn_multiplier", "modulus": 5, "multipliers": [2], "name": "R5"},
                "alpha": "zero",
            },
        ]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        code, text = run_cli("verify", "--corpus", str(path), "--strict")
        assert code == EXIT_OK
        assert "unledgered_failures=0" in text

    def test_t21_fails_off_the_default_corpus_with_a_bijective_alpha(self, tmp_path):
        # On Z2 x Z2 the swap of the factors is bijective and does not keep
        # I = {0, 2}: 1 o 2 = {0} lies in I, 1 lies outside and alpha(2) = 1
        # too, while ker(alpha) = {0} and R / {0} keeps I prime.
        z2 = tmp_path / "z2.json"
        z2.write_text(json.dumps({"kind": "zn_multiplier", "modulus": 2, "multipliers": [1], "name": "Z2"}))
        code, table = run_cli("product", "--ring", str(z2), "--ring2", str(z2))
        assert code == EXIT_OK and json.loads(table)["kind"] == "table"
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([{"ring": json.loads(table), "alpha": "map:0,2,1,3", "ideal": "0,2"}]))
        report = tmp_path / "report.json"
        code, text = run_cli("verify", "--corpus", str(path), "--theorems", "T21", "--report", str(report))
        assert code == EXIT_OK
        assert "T21 holds=0 fails=1" in text
        [record] = json.loads(report.read_text())
        assert (record["status"], record["witness"]) == ("fails", ["pair", 1, 2])
        [instance] = _load_corpus_file(str(path))
        t21 = next(t for t in verifier.catalog() if t.tid == "T21")
        assert verifier.reverify_witness(instance, t21, ("pair", 1, 2)) is True
        # T21 is in the ledger, so --strict still passes.
        code, text = run_cli("verify", "--corpus", str(path), "--theorems", "T21", "--strict")
        assert code == EXIT_OK and "unledgered_failures=0" in text

    def test_theorem_selection(self, tmp_path):
        corpus = [
            {
                "ring": {"kind": "zn_multiplier", "modulus": 6, "multipliers": [2], "name": "R6"},
                "ideal": "0,3",
                "alpha": "id",
            },
        ]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        code, text = run_cli("verify", "--corpus", str(path), "--theorems", "T19,T22")
        assert code == EXIT_OK
        assert "T19 holds=1" in text
        assert "T22 holds=1" in text
        assert "T05" not in text

    def test_unknown_theorem_exit_2(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("[]")
        code, _ = run_cli("verify", "--corpus", str(path), "--theorems", "T99")
        assert code == EXIT_PARSE


class TestVerifyReport:
    def test_report_file_and_json_stdout_hold_the_rendered_report(self, tmp_path, corpus_file):
        expected = render_report(run_suite(_load_corpus_file(corpus_file)))
        report = tmp_path / "report.json"
        code, text = run_cli("verify", "--corpus", corpus_file, "--report", str(report), "--json")
        assert code == EXIT_OK
        assert report.read_text() == expected
        summary, marker, printed = text.partition(f"report written: {report}\n")
        assert marker and printed == expected
        assert summary.endswith("unledgered_failures=0\n")
        code, alone = run_cli("verify", "--corpus", corpus_file, "--json")
        assert code == EXIT_OK
        assert alone == summary + expected

    def test_run_that_stops_part_way_leaves_no_report(self, tmp_path, corpus_file, monkeypatch):
        real_check = verifier.check
        calls = []

        def check_then_fail(instance, theorem):
            calls.append(theorem.tid)
            if len(calls) == 3:
                raise RuntimeError("stopped part way")
            return real_check(instance, theorem)

        monkeypatch.setattr(verifier, "check", check_then_fail)
        report = tmp_path / "report.json"
        with pytest.raises(RuntimeError):
            run_cli("verify", "--corpus", corpus_file, "--report", str(report))
        assert len(calls) == 3
        assert not report.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]

    @pytest.fixture()
    def no_corpus(self, monkeypatch):
        def build(*_args):
            pytest.fail("the corpus was built before the report path was checked")

        monkeypatch.setattr(cli, "iter_corpus", build)
        monkeypatch.setattr(cli, "_load_corpus_file", build)

    def test_report_in_missing_directory_exits_2_before_the_corpus(self, tmp_path, no_corpus):
        report = tmp_path / "missing" / "report.json"
        code, text = run_cli("verify", "--report", str(report))
        assert code == EXIT_PARSE
        assert text == f"parse error: cannot write report {report}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_report_path_that_is_a_directory_exits_2_before_the_corpus(self, tmp_path, no_corpus):
        code, text = run_cli("verify", "--report", str(tmp_path))
        assert code == EXIT_PARSE
        assert text == f"parse error: cannot write report {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_move_into_place_exits_2(self, tmp_path, corpus_file, monkeypatch):
        def refuse(_src, _dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(cli.os, "replace", refuse)
        report = tmp_path / "report.json"
        code, text = run_cli("verify", "--corpus", corpus_file, "--report", str(report))
        assert code == EXIT_PARSE
        assert text == f"parse error: cannot write report {report}: Invalid cross-device link\n"
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]


class TestCorpusCommand:
    def test_summary_shape(self):
        code, text = run_cli("corpus")
        assert code == EXIT_OK
        assert "total:" in text
        assert "ring_alpha_ideal:" in text

    def test_streamed_output_lists_the_generated_corpus(self):
        corpus = generate_corpus(DEFAULT_CONFIG)
        kinds = sorted(Counter(inst.kind for inst in corpus).items())
        text = f"total: {len(corpus)}\n" + "".join(f"{kind}: {n}\n" for kind, n in kinds)
        assert run_cli("corpus") == (EXIT_OK, text)
        code, text = run_cli("corpus", "--json")
        assert code == EXIT_OK
        assert json.loads(text) == {
            "total": len(corpus),
            "by_kind": dict(kinds),
            "instances": [inst.uid for inst in corpus],
        }
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9bc0967f9c4d4f2788dfb90d01f4a66d544e5b279a13781a3b4112b6eb2a670d"
        )


class TestIsomorphicResidueRings:
    def test_a_class_mate_with_other_components_is_checked_on_its_own(self, tmp_path):
        # 3 is a unit mod 8, so x -> 3x maps Z8[1] onto Z8[3]; but the second
        # entry carries the ideal 4Z8, which is not prime, where the first
        # carries the prime 2Z8.
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([
            {"ring": {"kind": "zn_multiplier", "modulus": 8, "multipliers": [1]}, "ideal": "gen:2", "alpha": "id"},
            {"ring": {"kind": "zn_multiplier", "modulus": 8, "multipliers": [3]}, "ideal": "gen:4", "alpha": "id"},
        ]))
        report = tmp_path / "report.json"
        code, text = run_cli("verify", "--corpus", str(path), "--report", str(report))
        assert code == EXIT_OK
        assert "T01 holds=1 fails=0 not_met=1 undecided=0\n" in text
        assert report.read_text() == render_report(run_suite(_load_corpus_file(str(path))))


class _ClosedOutput:
    def write(self, _text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestClosedOutput:
    MESSAGE = "error: the output was closed before it was complete\n"

    def test_closed_output_exits_1_with_one_line_on_stderr(self, corpus_file, capsys):
        assert main(["verify", "--corpus", corpus_file], out=_ClosedOutput()) == EXIT_SEMANTIC
        assert capsys.readouterr().err == self.MESSAGE

    def test_closed_output_keeps_the_finished_report(self, tmp_path, corpus_file, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--corpus", corpus_file, "--report", str(report)], out=_ClosedOutput())
        assert code == EXIT_SEMANTIC and capsys.readouterr().err == self.MESSAGE
        assert report.read_text() == render_report(run_suite(_load_corpus_file(corpus_file)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.json", "report.json"]

    def test_report_that_breaks_part_way_leaves_no_report(self, tmp_path, corpus_file, monkeypatch):
        # A report path whose reader goes away (a named pipe) is a report
        # that cannot be written; the partial file still goes.
        def write_then_break(records, handle):
            handle.write("[\n")
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(cli, "write_report", write_then_break)
        report = tmp_path / "report.json"
        code, text = run_cli("verify", "--corpus", corpus_file, "--report", str(report))
        assert code == EXIT_PARSE
        assert text == f"parse error: cannot write report {report}: Broken pipe\n"
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]

    def test_reader_gone_before_the_summary_gives_no_traceback(self, corpus_file):
        src = str(Path(hyperring.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "hyperring.cli", "verify", "--corpus", corpus_file],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
        proc.stdout.close()
        _out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (EXIT_SEMANTIC, self.MESSAGE)
