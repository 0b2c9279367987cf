import logging

import numpy as np
import pytest

from morphcomplex.wals import (
    MISSING_CATEGORY,
    MORPHOLOGY_FEATURES,
    encode,
    load_wals,
    match_rows,
)

CSV = """iso_code,Name,22A Inflectional Synthesis of the Verb,26A Prefixing vs. Suffixing,extra
fi,Finnish,6-7 categories per word,strongly suffixing,whatever
tr,Turkish,6-7 categories per word,strongly suffixing,x
vi,Vietnamese,,little affixation,y
xx,Empty,,,z
"""


class TestLoadWals:
    def test_field_mapping(self):
        table = load_wals(CSV, ["22A", "26A"])
        assert list(table) == ["fi", "tr", "vi", "xx"]
        assert table["fi"]["22A"] == "6-7 categories per word"

    def test_empty_cells_are_missing(self):
        vi = load_wals(CSV, ["22A", "26A"])["vi"]
        assert "22A" not in vi
        assert vi["26A"] == "little affixation"

    def test_fully_empty_row_kept_with_empty_map(self):
        assert load_wals(CSV, ["22A", "26A"])["xx"] == {}

    def test_coverage_counting(self):
        rows = ["language_code,22A Inflectional Synthesis of the Verb"]
        for i in range(25):
            value = "4-5 categories per word" if i < 18 else ""
            rows.append(f"l{i},{value}")
        table = load_wals("\n".join(rows), ["22A"])
        assert sum(1 for values in table.values() if "22A" in values) == 18

    def test_exact_header_match_supported(self):
        assert load_wals("language_code,22A\nfi,6\n", ["22A"]) == {"fi": {"22A": "6"}}

    def test_missing_feature_columns_listed(self):
        with pytest.raises(ValueError, match=r"\['26A', '49A'\]"):
            load_wals("iso_code,22A\nfi,6\n", ["22A", "26A", "49A"])

    def test_missing_language_column_rejected(self):
        with pytest.raises(ValueError, match="language column"):
            load_wals("name,22A\nFinnish,6\n", ["22A"])

    def test_duplicate_language_keeps_first(self):
        table = load_wals("iso_code,22A\nfi,first\nfi,second\n", ["22A"])
        assert table == {"fi": {"22A": "first"}}

    def test_duplicate_language_found_casefolded(self, caplog):
        """A code repeated in another letter case is a duplicate, so its
        categories add no column that no row can set."""
        table = load_wals("iso_code,22A\nENG,1 A\neng,2 B\n", ["22A"])
        assert table == {"eng": {"22A": "1 A"}}
        assert "duplicate language eng" in caplog.text
        dm = encode(table, ["eng"], feature_list=["22A"])
        assert dm.column_names == ("22A=1 A", f"22A={MISSING_CATEGORY}")

    def test_row_short_of_language_column_skipped(self, caplog):
        """A row that ends before the language column has an empty code."""
        assert load_wals("22A,iso_code\n6\n7,fi\n", ["22A"]) == {"fi": {"22A": "7"}}
        assert "skipping row with empty language code" in caplog.text

    def test_row_of_empty_cells_skipped_without_warning(self, caplog):
        """Rows of empty or blank cells, as spreadsheet exports leave, name no language."""
        with caplog.at_level(logging.WARNING):
            assert load_wals("iso_code,22A\n , \nfi,6\n,\n", ["22A"]) == {"fi": {"22A": "6"}}
        assert caplog.records == []

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError):
            load_wals("", ["22A"])


def table_abm():
    return {"l1": {"F1": "A"}, "l2": {"F1": "B"}, "l3": {}}


class TestEncode:
    def test_three_columns_one_hot(self):
        dm = encode(table_abm(), ["l1", "l2", "l3"], feature_list=["F1"])
        assert dm.column_names == ("F1=A", "F1=B", f"F1={MISSING_CATEGORY}")
        np.testing.assert_array_equal(
            dm.matrix, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_identical_records_identical_rows(self):
        dm = encode(table_abm(), ["l1", "l1"], feature_list=["F1"])
        np.testing.assert_array_equal(dm.matrix[0], dm.matrix[1])

    def test_column_count(self):
        table = {
            "l1": {"F1": "A", "F2": "x"},
            "l2": {"F1": "B", "F2": "y"},
            "l3": {"F1": "C"},
        }
        dm = encode(table, ["l1", "l2"], feature_list=["F1", "F2"])
        # (3 categories + missing) + (2 categories + missing)
        assert len(dm.column_names) == 7

    def test_every_block_sums_to_one(self):
        rng = np.random.default_rng(0)
        table = {
            f"l{i}": {f"F{j}": f"cat{rng.integers(3)}" for j in range(4) if rng.uniform() < 0.7}
            for i in range(12)
        }
        feature_list = [f"F{j}" for j in range(4)]
        dm = encode(table, [f"l{i}" for i in range(12)], feature_list=feature_list)
        start = 0
        for fid in feature_list:
            width = sum(1 for c in dm.column_names if c.startswith(fid + "="))
            block = dm.matrix[:, start : start + width]
            np.testing.assert_array_equal(block.sum(axis=1), np.ones(12))
            start += width
        assert start == len(dm.column_names)

    def test_unknown_language_gets_all_missing_row(self):
        dm = encode(table_abm(), ["nowhere"], feature_list=["F1"])
        np.testing.assert_array_equal(dm.matrix, [[0, 0, 1]])

    def test_record_order_does_not_matter(self):
        langs = ["l1", "l2", "l3"]
        a = encode(table_abm(), langs, feature_list=["F1"])
        b = encode(dict(reversed(table_abm().items())), langs, feature_list=["F1"])
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.column_names == b.column_names

    def test_empty_language_list_rejected(self):
        with pytest.raises(ValueError):
            encode(table_abm(), [], feature_list=["F1"])

    def test_codes_compared_casefolded_and_first_record_wins(self):
        table = load_wals("iso_code,F1\nL1,A\nl1,B\n", ["F1"])
        dm = encode(table, ["l1", "L1"], feature_list=["F1"])
        assert dm.column_names == ("F1=A", f"F1={MISSING_CATEGORY}")
        np.testing.assert_array_equal(dm.matrix, [[1, 0], [1, 0]])


class TestMatchRows:
    def test_codes_casefolded_and_unknown_languages_dropped(self):
        codes, values = match_rows(
            table_abm(), ["L1", "xx", "l2", "L3", "l1"], np.arange(5.0), per_language=False
        )
        assert codes == ("l1", "l2", "l3", "l1")
        np.testing.assert_array_equal(values, [0.0, 2.0, 3.0, 4.0])

    def test_per_language_means_in_sorted_code_order(self):
        codes = ["l3", "L1", "l2", "l3", "l1", "l1"]
        values = np.random.default_rng(1).normal(size=len(codes))
        matched, means = match_rows(table_abm(), codes, values, per_language=True)
        assert matched == ("l1", "l2", "l3")
        folded = np.array([c.lower() for c in codes])
        assert means.tolist() == [np.mean(values[folded == c]) for c in matched]

    def test_fewer_than_three_rows_rejected(self):
        with pytest.raises(ValueError, match="^only 2 rows matched WALS languages$"):
            match_rows(table_abm(), ["l1", "xx", "l2"], np.arange(3.0), per_language=False)

    def test_fewer_than_three_languages_rejected(self):
        with pytest.raises(ValueError, match="^only 2 languages matched WALS languages$"):
            match_rows(table_abm(), ["l1", "l2", "L1", "l2"], np.arange(4.0), per_language=True)


def test_default_feature_list_is_the_28_morphology_features():
    assert len(MORPHOLOGY_FEATURES) == 28
    assert MORPHOLOGY_FEATURES[0] == "22A"
    assert "101A" in MORPHOLOGY_FEATURES
    assert MORPHOLOGY_FEATURES[-1] == "112A"
