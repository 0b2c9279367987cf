import numpy as np
import pytest

from morphcomplex.wals import (
    MISSING_CATEGORY,
    MORPHOLOGY_FEATURES,
    WalsRecord,
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
        records = load_wals(CSV, ["22A", "26A"])
        fi = records[0]
        assert fi.language_code == "fi"
        assert fi.values["22A"] == "6-7 categories per word"

    def test_empty_cells_are_missing(self):
        records = load_wals(CSV, ["22A", "26A"])
        vi = next(r for r in records if r.language_code == "vi")
        assert "22A" not in vi.values
        assert vi.values["26A"] == "little affixation"

    def test_fully_empty_row_kept_with_empty_map(self):
        records = load_wals(CSV, ["22A", "26A"])
        xx = next(r for r in records if r.language_code == "xx")
        assert xx.values == {}

    def test_coverage_counting(self):
        rows = ["language_code,22A Inflectional Synthesis of the Verb"]
        for i in range(25):
            value = "4-5 categories per word" if i < 18 else ""
            rows.append(f"l{i},{value}")
        records = load_wals("\n".join(rows), ["22A"])
        assert sum(1 for r in records if "22A" in r.values) == 18

    def test_exact_header_match_supported(self):
        records = load_wals("language_code,22A\nfi,6\n", ["22A"])
        assert records[0].values["22A"] == "6"

    def test_missing_feature_columns_listed(self):
        with pytest.raises(ValueError, match=r"\['26A', '49A'\]"):
            load_wals("iso_code,22A\nfi,6\n", ["22A", "26A", "49A"])

    def test_missing_language_column_rejected(self):
        with pytest.raises(ValueError, match="language column"):
            load_wals("name,22A\nFinnish,6\n", ["22A"])

    def test_duplicate_language_keeps_first(self):
        records = load_wals("iso_code,22A\nfi,first\nfi,second\n", ["22A"])
        assert len(records) == 1
        assert records[0].values["22A"] == "first"

    def test_duplicate_language_found_casefolded(self, caplog):
        """A code repeated in another letter case is a duplicate, so its
        categories add no column that no row can set."""
        records = load_wals("iso_code,22A\nENG,1 A\neng,2 B\n", ["22A"])
        assert [(r.language_code, r.values) for r in records] == [("ENG", {"22A": "1 A"})]
        assert "duplicate language eng" in caplog.text
        dm = encode(records, ["eng"], feature_list=["22A"])
        assert dm.column_names == ("22A=1 A", f"22A={MISSING_CATEGORY}")

    def test_row_short_of_language_column_skipped(self, caplog):
        """A row that ends before the language column has an empty code."""
        records = load_wals("22A,iso_code\n6\n7,fi\n", ["22A"])
        assert [(r.language_code, r.values) for r in records] == [("fi", {"22A": "7"})]
        assert "skipping row with empty language code" in caplog.text

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError):
            load_wals("", ["22A"])


def records_abm():
    return [
        WalsRecord("l1", {"F1": "A"}),
        WalsRecord("l2", {"F1": "B"}),
        WalsRecord("l3", {}),
    ]


class TestEncode:
    def test_three_columns_one_hot(self):
        dm = encode(records_abm(), ["l1", "l2", "l3"], feature_list=["F1"])
        assert dm.column_names == ("F1=A", "F1=B", f"F1={MISSING_CATEGORY}")
        np.testing.assert_array_equal(
            dm.matrix, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_identical_records_identical_rows(self):
        dm = encode(records_abm(), ["l1", "l1"], feature_list=["F1"])
        np.testing.assert_array_equal(dm.matrix[0], dm.matrix[1])

    def test_column_count(self):
        records = [
            WalsRecord("l1", {"F1": "A", "F2": "x"}),
            WalsRecord("l2", {"F1": "B", "F2": "y"}),
            WalsRecord("l3", {"F1": "C"}),
        ]
        dm = encode(records, ["l1", "l2"], feature_list=["F1", "F2"])
        # (3 categories + missing) + (2 categories + missing)
        assert len(dm.column_names) == 7

    def test_every_block_sums_to_one(self):
        rng = np.random.default_rng(0)
        records = [
            WalsRecord(
                f"l{i}",
                {
                    f"F{j}": f"cat{rng.integers(3)}"
                    for j in range(4)
                    if rng.uniform() < 0.7
                },
            )
            for i in range(12)
        ]
        feature_list = [f"F{j}" for j in range(4)]
        dm = encode(records, [f"l{i}" for i in range(12)], feature_list=feature_list)
        start = 0
        for fid in feature_list:
            width = sum(1 for c in dm.column_names if c.startswith(fid + "="))
            block = dm.matrix[:, start : start + width]
            np.testing.assert_array_equal(block.sum(axis=1), np.ones(12))
            start += width
        assert start == len(dm.column_names)

    def test_unknown_language_gets_all_missing_row(self):
        dm = encode(records_abm(), ["nowhere"], feature_list=["F1"])
        np.testing.assert_array_equal(dm.matrix, [[0, 0, 1]])

    def test_record_order_does_not_matter(self):
        langs = ["l1", "l2", "l3"]
        a = encode(records_abm(), langs, feature_list=["F1"])
        b = encode(list(reversed(records_abm())), langs, feature_list=["F1"])
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.column_names == b.column_names

    def test_empty_language_list_rejected(self):
        with pytest.raises(ValueError):
            encode(records_abm(), [], feature_list=["F1"])

    def test_codes_compared_casefolded_and_first_record_wins(self):
        records = [WalsRecord("L1", {"F1": "A"}), WalsRecord("l1", {"F1": "B"})]
        dm = encode(records, ["l1", "L1"], feature_list=["F1"])
        np.testing.assert_array_equal(dm.matrix, [[1, 0, 0], [1, 0, 0]])


class TestMatchRows:
    def test_codes_casefolded_and_unknown_languages_dropped(self):
        codes, values = match_rows(
            records_abm(), ["L1", "xx", "l2", "L3", "l1"], np.arange(5.0), per_language=False
        )
        assert codes == ("l1", "l2", "l3", "l1")
        np.testing.assert_array_equal(values, [0.0, 2.0, 3.0, 4.0])

    def test_per_language_means_in_sorted_code_order(self):
        codes = ["l3", "L1", "l2", "l3", "l1", "l1"]
        values = np.random.default_rng(1).normal(size=len(codes))
        matched, means = match_rows(records_abm(), codes, values, per_language=True)
        assert matched == ("l1", "l2", "l3")
        folded = np.array([c.lower() for c in codes])
        assert means.tolist() == [np.mean(values[folded == c]) for c in matched]

    def test_fewer_than_three_rows_rejected(self):
        with pytest.raises(ValueError, match="^only 2 rows matched WALS languages$"):
            match_rows(records_abm(), ["l1", "xx", "l2"], np.arange(3.0), per_language=False)

    def test_fewer_than_three_languages_rejected(self):
        with pytest.raises(ValueError, match="^only 2 languages matched WALS languages$"):
            match_rows(records_abm(), ["l1", "l2", "L1", "l2"], np.arange(4.0), per_language=True)


def test_default_feature_list_is_the_28_morphology_features():
    assert len(MORPHOLOGY_FEATURES) == 28
    assert MORPHOLOGY_FEATURES[0] == "22A"
    assert "101A" in MORPHOLOGY_FEATURES
    assert MORPHOLOGY_FEATURES[-1] == "112A"
