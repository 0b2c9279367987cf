import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphcomplex.conllu import (
    ConlluParseError,
    ExclusionConfig,
    Treebank,
    apply_exclusions,
    parse_conllu,
    parse_conllu_file,
    read_manifest,
    unavailable_measures,
)

from synthdata import make_token, make_treebank


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
        tb = parse_conllu(SIMPLE, "fi_x", "fi")
        assert tb.sentences[0].tokens[0].feats == (("Case", "Nom"), ("Number", "Plur"))

    def test_counts(self):
        tb = parse_conllu(SIMPLE, "fi_x", "fi")
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
        tb = parse_conllu(text, "es_x", "es")
        assert [t.form for t in tb.sentences[0].tokens] == ["de", "el"]

    def test_empty_nodes_skipped(self):
        text = "\n".join(
            [
                token_line(1, "a", "a"),
                "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
                token_line(2, "b", "b"),
                "",
            ]
        )
        tb = parse_conllu(text, "x", "xx")
        assert [t.form for t in tb.sentences[0].tokens] == ["a", "b"]

    def test_underscore_feats_is_empty_set(self):
        tb = parse_conllu(token_line(1, "a", "a") + "\n", "x", "xx")
        assert tb.sentences[0].tokens[0].feats == ()

    def test_underscore_lemma_becomes_empty_marker(self):
        tb = parse_conllu(token_line(1, "word") + "\n", "x", "xx")
        tok = tb.sentences[0].tokens[0]
        assert tok.form == "word"
        assert tok.lemma == ""

    def test_crlf_input(self):
        text = SIMPLE.replace("\n", "\r\n")
        assert parse_conllu(text, "x", "xx").n_tokens == 3

    def test_lowercase_switch(self):
        tb = parse_conllu(token_line(1, "Koira", "Koira") + "\n", "x", "xx", lowercase=True)
        assert tb.sentences[0].tokens[0].form == "koira"

    def test_missing_final_blank_line(self):
        tb = parse_conllu(token_line(1, "a", "a"), "x", "xx")
        assert tb.n_tokens == 1

    def test_wrong_column_count_reports_line(self):
        text = token_line(1, "a", "a") + "\n1\tonly-two\n"
        with pytest.raises(ConlluParseError) as err:
            parse_conllu(text, "x", "xx")
        assert err.value.line_no == 2

    def test_bad_feats_reports_line(self):
        text = token_line(1, "a", "a", feats="Case") + "\n"
        with pytest.raises(ConlluParseError) as err:
            parse_conllu(text, "x", "xx")
        assert err.value.line_no == 1

    def test_conflicting_feature_values_rejected(self):
        text = token_line(1, "a", "a", feats="Case=Nom|Case=Gen") + "\n"
        with pytest.raises(ConlluParseError):
            parse_conllu(text, "x", "xx")

    def test_empty_input_rejected(self):
        with pytest.raises(ConlluParseError):
            parse_conllu("", "x", "xx")
        with pytest.raises(ConlluParseError):
            parse_conllu("# only a comment\n\n", "x", "xx")

    def test_bad_token_id_rejected(self):
        with pytest.raises(ConlluParseError):
            parse_conllu("x\ta\ta\tX\t_\t_\t_\t_\t_\t_\n", "x", "xx")

    def test_utf8_bom_file_accepted(self, tmp_path):
        path = tmp_path / "bom.conllu"
        path.write_bytes(b"\xef\xbb\xbf" + SIMPLE.encode("utf-8"))
        tb = parse_conllu_file(str(path), "x", "xx")
        assert tb.n_tokens == 3
        assert tb.sentences[0].tokens[0].form == "koirat"


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
        tb = parse_conllu("\n".join(lines), "x", "xx")
        assert [len(s) for s in tb.sentences] == shapes
        assert [t.form for s in tb.sentences for t in s.tokens] == expected_forms

    def test_parsing_is_deterministic(self):
        assert parse_conllu(SIMPLE, "x", "xx") == parse_conllu(SIMPLE, "x", "xx")


def featureless_treebank(tb_id, n_keys):
    feats = {f"K{i}": "v" for i in range(n_keys)}
    return make_treebank(tb_id, tb_id[:2], [[make_token("a", "a", feats=feats)]])


class TestExclusions:
    def test_threshold_rule(self):
        tb = featureless_treebank("ja_x", 2)
        kept, excluded = apply_exclusions([tb], ExclusionConfig(min_feature_keys=3))
        assert kept == []
        [(excl_tb, reasons)] = excluded
        assert excl_tb.id == "ja_x"
        assert reasons[0].reason == "no-morph-features"
        assert set(reasons[0].measures) == {"is", "mfh", "neg_ia"}

    def test_rich_treebank_kept(self):
        tb = featureless_treebank("fi_x", 29)
        kept, excluded = apply_exclusions([tb], ExclusionConfig())
        assert [t.id for t in kept] == ["fi_x"]
        assert excluded == []

    def test_deny_list_hits_ws_only(self):
        tb = featureless_treebank("zh_gsd", 10)
        _, excluded = apply_exclusions(
            [tb], ExclusionConfig(script_excluded_ids=frozenset({"zh_gsd"}))
        )
        [(_, reasons)] = excluded
        assert len(reasons) == 1
        assert reasons[0].reason == "non-alphabetic-script"
        assert reasons[0].measures == ("ws",)
        assert unavailable_measures(reasons) == {"ws"}

    def test_partition(self):
        tbs = [featureless_treebank(f"t{i}", i) for i in range(6)]
        kept, excluded = apply_exclusions(tbs, ExclusionConfig(min_feature_keys=3))
        kept_ids = {t.id for t in kept}
        excl_ids = {t.id for t, _ in excluded}
        assert kept_ids | excl_ids == {t.id for t in tbs}
        assert kept_ids & excl_ids == set()

    def test_empty_kept_is_allowed(self):
        tbs = [featureless_treebank("a_x", 0), featureless_treebank("b_x", 1)]
        kept, excluded = apply_exclusions(tbs, ExclusionConfig(min_feature_keys=3))
        assert kept == []
        assert len(excluded) == 2


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

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_manifest(str(manifest))


def test_treebank_token_count_invariant_enforced():
    with pytest.raises(ValueError):
        Treebank("x", "xx", (), n_tokens=5, n_feature_keys=0)
