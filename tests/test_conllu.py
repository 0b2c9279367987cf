import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphcomplex.conllu import (
    ConlluParseError,
    apply_exclusions,
    parse_conllu,
    parse_conllu_file,
    read_manifest,
)

import reference
from synthdata import conllu_text, make_token, make_treebank, treebank_tokens


def token_line(idx, form, lemma="_", upos="NOUN", feats="_"):
    return f"{idx}\t{form}\t{lemma}\t{upos}\t_\t{feats}\t0\tdep\t_\t_"


SIMPLE = "\n".join(
    [
        "# sent_id = 1",
        token_line(1, "koirat", "koira", feats="Case=Nom|Number=Plur"),
        token_line(2, "juoksevat", "juosta", upos="VERB", feats="Number=Plur|Person=3"),
        "",
        "# sent_id = 2",
        token_line(1, "kissa", "kissa", feats="Case=Nom|Number=Sing"),
        "",
    ]
)


class TestParse:
    def test_feats_parsed_into_pairs(self):
        tb = parse_conllu(SIMPLE, "fi_x")
        assert treebank_tokens(tb)[0][0].feats == (("Case", "Nom"), ("Number", "Plur"))

    def test_counts(self):
        tb = parse_conllu(SIMPLE, "fi_x")
        assert len(tb.sentences) == 2
        assert tb.n_tokens == 3
        assert tb.n_feature_keys == 3  # Case, Number, Person

    def test_range_lines_skipped(self):
        text = "\n".join(
            [
                "3-4\tdel\t_\t_\t_\t_\t_\t_\t_\t_",
                token_line(3, "de", "de", "ADP"),
                token_line(4, "el", "el", "DET"),
                "",
            ]
        )
        tb = parse_conllu(text, "es_x")
        assert [t.form for t in treebank_tokens(tb)[0]] == ["de", "el"]

    def test_empty_nodes_skipped(self):
        text = "\n".join(
            [
                token_line(1, "a", "a"),
                "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
                token_line(2, "b", "b"),
                "",
            ]
        )
        tb = parse_conllu(text, "x")
        assert [t.form for t in treebank_tokens(tb)[0]] == ["a", "b"]

    def test_underscore_feats_is_empty_set(self):
        tb = parse_conllu(token_line(1, "a", "a") + "\n", "x")
        assert treebank_tokens(tb)[0][0].feats == ()

    def test_underscore_lemma_becomes_empty_marker(self):
        tb = parse_conllu(token_line(1, "word") + "\n", "x")
        [[tok]] = treebank_tokens(tb)
        assert tok.form == "word"
        assert tok.lemma == ""

    def test_crlf_input(self):
        text = SIMPLE.replace("\n", "\r\n")
        assert parse_conllu(text, "x").n_tokens == 3

    def test_lowercase_switch(self):
        tb = parse_conllu(token_line(1, "Koira", "Koira") + "\n", "x", lowercase=True)
        assert treebank_tokens(tb)[0][0].form == "koira"

    def test_missing_final_blank_line(self):
        tb = parse_conllu(token_line(1, "a", "a"), "x")
        assert tb.n_tokens == 1

    def test_runs_of_blank_lines_end_one_sentence(self):
        a, b = token_line(1, "a", "a"), token_line(1, "b", "b")
        tb = parse_conllu("\n".join(["", "", a, "# c", a, "", " ", "", b, "", "", ""]), "x")
        assert tb.sentences.tolist() == [0, 2]
        assert tb.sentences.dtype == "int32"

    def test_wrong_column_count_reports_line(self):
        text = token_line(1, "a", "a") + "\n1\tonly-two\n"
        with pytest.raises(ConlluParseError) as err:
            parse_conllu(text, "x")
        assert err.value.line_no == 2

    def test_bad_feats_reports_line(self):
        text = token_line(1, "a", "a", feats="Case") + "\n"
        with pytest.raises(ConlluParseError) as err:
            parse_conllu(text, "x")
        assert err.value.line_no == 1

    def test_conflicting_feature_values_rejected(self):
        text = token_line(1, "a", "a", feats="Case=Nom|Case=Gen") + "\n"
        with pytest.raises(ConlluParseError):
            parse_conllu(text, "x")

    def test_empty_input_rejected(self):
        with pytest.raises(ConlluParseError):
            parse_conllu("", "x")
        with pytest.raises(ConlluParseError):
            parse_conllu("# only a comment\n\n", "x")

    def test_bad_token_id_rejected(self):
        with pytest.raises(ConlluParseError):
            parse_conllu("x\ta\ta\tX\t_\t_\t_\t_\t_\t_\n", "x")

    def test_lone_carriage_return_stays_in_file_field(self, tmp_path):
        path = tmp_path / "cr.conllu"
        path.write_bytes((token_line(1, "a\rb", "a") + "\r\n").encode("utf-8"))
        tb = parse_conllu_file(str(path), "x")
        assert tb.forms == ("a\rb",)
        assert tb.n_tokens == 1

    def test_utf8_bom_file_accepted(self, tmp_path):
        path = tmp_path / "bom.conllu"
        path.write_bytes(b"\xef\xbb\xbf" + SIMPLE.encode("utf-8"))
        tb = parse_conllu_file(str(path), "x")
        assert tb.n_tokens == 3
        assert treebank_tokens(tb)[0][0].form == "koirat"


# Byte inputs on which the streamed file parse must equal the text parse.
FILE_INPUTS = {
    "bom": b"\xef\xbb\xbf" + SIMPLE.encode("utf-8"),
    "crlf": SIMPLE.replace("\n", "\r\n").encode("utf-8"),
    "lone-cr-in-field": "\n".join([token_line(1, "a\rb", "a"), token_line(2, "c\r", "c")]).encode(),
    "no-final-newline": SIMPLE.rstrip("\n").encode("utf-8"),
    "trailing-blank-lines": (SIMPLE + "\n\r\n\n").encode("utf-8"),
    "whitespace-only-lines": SIMPLE.replace("\n\n", "\n \t\n  \r\n").encode("utf-8"),
}


def byte_line(idx, form=b"a"):
    return b"%d\t%s\ta\tNOUN\t_\tCase=Nom\t0\tdep\t_\t_" % (idx, form)


GOOD_SENTENCE = [b"# sent_id = 1", byte_line(1), byte_line(2), b""]
# Files that are not UTF-8, each with the error that names its first fault.
BAD_UTF8 = {
    "invalid-start-byte": (
        b"\n".join([b"# c", b"1\xff" + byte_line(1)[1:], b""]),
        "line 2: invalid UTF-8 (invalid start byte)",
    ),
    "invalid-continuation-byte": (
        b"\n".join([b"# c", byte_line(1), byte_line(2, b"a\xc3("), b""]),
        "line 3: invalid UTF-8 (invalid continuation byte)",
    ),
    "sequence-cut-at-line-end": (
        b"\n".join([b"# c", byte_line(1), byte_line(2) + b"\xc3", b""]),
        "line 3: invalid UTF-8 (invalid continuation byte)",
    ),
    "sequence-cut-at-file-end": (
        b"\n".join([b"# c", byte_line(1), byte_line(2) + b"\xe2\x82"]),
        "line 3: invalid UTF-8 (unexpected end of data)",
    ),
    "surrogate-in-comment": (
        b"\n".join([byte_line(1), b"# text = \xed\xa0\x80", byte_line(2), b""]),
        "line 2: invalid UTF-8 (invalid continuation byte)",
    ),
    "bom-then-bad-byte": (
        b"\xef\xbb\xbf\xff" + b"\n".join([b"# c", byte_line(1), b""]),
        "line 1: invalid UTF-8 (invalid start byte)",
    ),
    "bad-byte-in-first-comment": (
        b"\n".join([b"# sent_id = \xff", byte_line(1), b""]),
        "line 1: invalid UTF-8 (invalid start byte)",
    ),
    "malformed-line-8kb-before": (
        b"\n".join([b"# c", b"1\tonly-two"] + GOOD_SENTENCE * 800 + [b"\xff", b""]),
        "line 2: expected 10 columns, got 2",
    ),
    "malformed-line-after": (
        b"\n".join([b"# c", byte_line(1), b"\xff" + byte_line(2), b"1\tonly-two", b""]),
        "line 3: invalid UTF-8 (invalid start byte)",
    ),
    "bad-byte-on-line-3002": (
        b"\n".join(GOOD_SENTENCE * 750 + [b"# c", byte_line(1, b"\xfe"), b""]),
        "line 3002: invalid UTF-8 (invalid start byte)",
    ),
    "one-bad-byte": (b"\xff", "line 1: invalid UTF-8 (invalid start byte)"),
}


class TestFile:
    @pytest.mark.parametrize("name", sorted(FILE_INPUTS))
    def test_file_parse_equals_text_parse(self, tmp_path, name):
        path = tmp_path / "t.conllu"
        path.write_bytes(FILE_INPUTS[name])
        text = FILE_INPUTS[name].decode("utf-8")
        assert parse_conllu_file(str(path), "x") == parse_conllu(text, "x")

    @pytest.mark.parametrize("repeat, line_no", [(1, 3), (400, 1203)])
    def test_invalid_utf8_names_its_line(self, tmp_path, repeat, line_no):
        """The bad byte may sit past the first block the decoder reads."""
        lines = (SIMPLE * repeat).encode("utf-8").split(b"\n")
        lines[line_no - 1] = lines[line_no - 1].replace(b"\t", b"\xff\t", 1)
        path = tmp_path / "bad.conllu"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ConlluParseError, match="invalid UTF-8") as err:
            parse_conllu_file(str(path), "x")
        assert err.value.line_no == line_no

    def test_earlier_malformed_line_wins_over_invalid_utf8(self, tmp_path):
        """The decoder reads the bad byte on line 5 before line 2 is parsed."""
        lines = SIMPLE.encode("utf-8").split(b"\n")
        lines[1] = b"1\tonly-two"
        lines[4] = b"\xff" + lines[4]
        path = tmp_path / "two-defects.conllu"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ConlluParseError, match="^line 2: expected 10 columns, got 2$"):
            parse_conllu_file(str(path), "x")

    @pytest.mark.parametrize("name", sorted(BAD_UTF8))
    def test_invalid_utf8_message(self, tmp_path, name):
        data, message = BAD_UTF8[name]
        path = tmp_path / "bad.conllu"
        path.write_bytes(data)
        with pytest.raises(ConlluParseError, match=f"^{re.escape(message)}$"):
            parse_conllu_file(str(path), "x")


@st.composite
def sentence_shapes(draw):
    n_sents = draw(st.integers(min_value=1, max_value=6))
    return [draw(st.integers(min_value=1, max_value=8)) for _ in range(n_sents)]


class TestParseProperties:
    @given(shapes=sentence_shapes())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_counts(self, shapes):
        lines = []
        expected_forms = []
        for sent_len in shapes:
            for i in range(sent_len):
                form = f"w{len(expected_forms)}"
                expected_forms.append(form)
                lines.append(token_line(i + 1, form, form))
            lines.append("")
        tb = parse_conllu("\n".join(lines), "x")
        assert [len(s) for s in treebank_tokens(tb)] == shapes
        assert [t.form for s in treebank_tokens(tb) for t in s] == expected_forms

    def test_parsing_is_deterministic(self):
        assert parse_conllu(SIMPLE, "x") == parse_conllu(SIMPLE, "x")


# Any text without tab or line break characters; reference.parse_conllu
# splits lines on every character str.splitlines() breaks at.
CELL_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1, max_size=5
)
FEATS_CELL = st.dictionaries(
    st.sampled_from(["Case", "Number", "Gender", "Person", "Tense"]),
    st.text("abcXYZ019", min_size=1, max_size=3),
    max_size=4,
).map(lambda pairs: "|".join(f"{k}={v}" for k, v in pairs.items()) or "_")


@st.composite
def conllu_lines(draw):
    """Token lines, with range lines, empty nodes, comments and blank lines."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lines.append("# text = " + draw(CELL_TEXT))
        for i in range(1, draw(st.integers(1, 5)) + 1):
            if draw(st.integers(0, 4)) == 0:
                lines.append(f"{i}-{i + 1}\t{draw(CELL_TEXT)}\t_\t_\t_\t_\t_\t_\t_\t_")
            form = draw(st.one_of(st.just("_"), CELL_TEXT))
            lemma = draw(st.one_of(st.just("_"), CELL_TEXT))
            lines.append(token_line(i, form, lemma, feats=draw(FEATS_CELL)))
            if draw(st.integers(0, 4)) == 0:
                lines.append(f"{i}.1\t{draw(CELL_TEXT)}\t_\t_\t_\t_\t_\t_\t_\t_")
        lines.append("")
    return lines


def encode(lines, crlf, bom):
    return ("\ufeff" if bom else "") + ("\r\n" if crlf else "\n").join(lines)


class TestRoundTrip:
    @given(lines=conllu_lines(), crlf=st.booleans(), bom=st.booleans(), lowercase=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_parse_serialize_parse(self, lines, crlf, bom, lowercase):
        tb = parse_conllu(encode(lines, crlf, bom), "x", lowercase=lowercase)
        assert parse_conllu(conllu_text(treebank_tokens(tb)), "x", lowercase=lowercase) == tb
        old = reference.parse_conllu(encode(lines, crlf, False), "x", "xx", lowercase=lowercase)
        expected = [[(t.form, t.lemma, t.feats) for t in s.tokens] for s in old.sentences]
        assert [[(t.form, t.lemma, t.feats) for t in s] for s in treebank_tokens(tb)] == expected

    @given(lines=conllu_lines(), crlf=st.booleans(), bom=st.booleans(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_error_names_the_line(self, lines, crlf, bom, data):
        at = data.draw(st.integers(0, len(lines)))
        bad = data.draw(st.sampled_from(
            [token_line(1, "a", feats="Case"), "1\tonly-two", token_line("x", "a")]
        ))
        with pytest.raises(ConlluParseError) as err:
            parse_conllu(encode(lines[:at] + [bad] + lines[at:], crlf, bom), "x")
        assert err.value.line_no == at + 1


def featureless_treebank(tb_id, n_keys):
    feats = {f"K{i}": "v" for i in range(n_keys)}
    return make_treebank(tb_id, [[make_token("a", "a", feats=feats)]])


class TestExclusions:
    def test_threshold_rule(self):
        tb = featureless_treebank("ja_x", 2)
        [reason] = apply_exclusions(tb, 3, frozenset())
        assert reason.reason == "no-morph-features"
        assert set(reason.measures) == {"is", "mfh", "neg_ia"}

    def test_rich_treebank_kept(self):
        tb = featureless_treebank("fi_x", 29)
        assert apply_exclusions(tb, 3, frozenset()) == ()

    def test_deny_list_hits_ws_only(self):
        tb = featureless_treebank("zh_gsd", 10)
        reasons = apply_exclusions(tb, 3, frozenset({"zh_gsd"}))
        assert len(reasons) == 1
        assert reasons[0].reason == "non-alphabetic-script"
        assert reasons[0].measures == ("ws",)

    def test_partition(self):
        tbs = [featureless_treebank(f"t{i}", i) for i in range(6)]
        assert [bool(apply_exclusions(tb, 3, frozenset())) for tb in tbs] == [True] * 3 + [False] * 3

    def test_empty_kept_is_allowed(self):
        tbs = [featureless_treebank("a_x", 0), featureless_treebank("b_x", 1)]
        assert all(apply_exclusions(tb, 3, frozenset()) for tb in tbs)


class TestManifest:
    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "a.conllu").write_text(token_line(1, "a", "a") + "\n")
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("# comment line\na_x\taa\tdata/a.conllu\n")
        [(tb_id, lang, path)] = read_manifest(str(manifest))
        assert (tb_id, lang) == ("a_x", "aa")
        assert path == str(tmp_path / "data" / "a.conllu")

    def test_utf8_bom_manifest_accepted(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(b"\xef\xbb\xbf# comment line\na_x\taa\ta.conllu\n")
        [(tb_id, lang, _)] = read_manifest(str(manifest))
        assert (tb_id, lang) == ("a_x", "aa")

    def test_bad_column_count(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("only_one_field\n")
        with pytest.raises(ValueError):
            read_manifest(str(manifest))

    @pytest.mark.parametrize(
        "row, name",
        [("\txx\ta.conllu", "treebank id"), ("a\t \ta.conllu", "language"), ("a\txx\t", "path")],
    )
    def test_empty_cell_names_its_line(self, tmp_path, row, name):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"# comment\nb\tyy\tb.conllu\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{manifest}: line 3: empty {name}')}$"):
            read_manifest(str(manifest))

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_manifest(str(manifest))

