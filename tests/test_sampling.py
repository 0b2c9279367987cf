import contextlib
import re
import threading

import numpy as np
import pytest

from morphcomplex import measures
from morphcomplex.sampling import (
    MeasureError,
    bootstrap_sample,
    measure_rng,
    run_repetitions,
    sample_rng,
)
from morphcomplex.conllu import Treebank
from morphcomplex.measures import ttr

from synthdata import make_token, make_treebank, sample_forms, treebank_tokens


def five_token_treebank():
    return make_treebank("one", [[make_token(f"w{i}") for i in range(5)]])


def varied_treebank():
    sentences = [[make_token(f"s{j}w{i}") for i in range(j + 1)] for j in range(7)]
    return make_treebank("varied", sentences)


def sentence_forms(sample):
    """Each drawn sentence of ``sample`` as a tuple of forms."""
    return [tuple(row) for row in sample.rows(sample_forms(sample))]


class TestBootstrapSample:
    def test_truncation_forced_by_single_sentence(self):
        sample = bootstrap_sample(five_token_treebank(), 12, np.random.default_rng(0))
        assert [len(s) for s in sentence_forms(sample)] == [5, 5, 2]
        assert sample.n_tokens == 12

    def test_exact_token_budget(self):
        tb = varied_treebank()
        for target in (1, 2, 13, 50, 199):
            sample = bootstrap_sample(tb, target, np.random.default_rng(1))
            assert sample.n_tokens == target
            assert sum(len(s) for s in sentence_forms(sample)) == target

    def test_same_seed_same_sample(self):
        tb = varied_treebank()
        a = bootstrap_sample(tb, 40, sample_rng(7, tb.id, 3))
        b = bootstrap_sample(tb, 40, sample_rng(7, tb.id, 3))
        assert sample_forms(a) == sample_forms(b)

    def test_different_repetition_different_sample(self):
        tb = varied_treebank()
        a = bootstrap_sample(tb, 40, sample_rng(7, tb.id, 0))
        b = bootstrap_sample(tb, 40, sample_rng(7, tb.id, 1))
        assert sample_forms(a) != sample_forms(b)

    def test_sentence_internal_order_preserved(self):
        tb = varied_treebank()
        originals = {tuple(t.form for t in s) for s in treebank_tokens(tb)}
        sample = bootstrap_sample(tb, 60, np.random.default_rng(2))
        *whole, last = sentence_forms(sample)
        for sent in whole:
            assert sent in originals
        assert any(orig[: len(last)] == last for orig in originals)

    def test_empty_treebank_rejected(self):
        no_ids = np.zeros(0, dtype=np.int32)
        no_forms, marker_only = np.array([], dtype=object), np.array([""], dtype=object)
        empty = Treebank("empty", no_forms, marker_only, marker_only, no_ids, no_ids, no_ids, no_ids)
        with pytest.raises(ValueError):
            bootstrap_sample(empty, 10, np.random.default_rng(0))


class TestRunRepetitions:
    def test_constant_measure(self):
        stats = run_repetitions(five_token_treebank(), {"one": lambda s, rng: 1.0}, 10, 100, 5)
        assert stats["one"].mean == 1.0
        assert stats["one"].stddev == 0.0
        assert stats["one"].n_repetitions == 100
        assert stats["one"].available

    def test_ttr_stddev_zero_on_single_unique_sentence(self):
        stats = run_repetitions(five_token_treebank(), {"ttr": lambda s, rng: ttr(s)}, 5, 20, 1)
        assert stats["ttr"].mean == 1.0
        assert stats["ttr"].stddev == 0.0

    def test_registration_order_does_not_matter(self):
        tb = varied_treebank()
        fns = {
            "ttr": lambda s, rng: ttr(s),
            "noise": lambda s, rng: float(rng.uniform()),
        }
        forward = run_repetitions(tb, fns, 30, 10, 9)
        backward = run_repetitions(tb, dict(reversed(list(fns.items()))), 30, 10, 9)
        assert forward == backward

    def test_repetition_values_match_independent_recomputation(self):
        tb = varied_treebank()
        stats = run_repetitions(tb, {"ttr": lambda s, rng: ttr(s)}, 30, 8, 11)
        values = []
        for rep in reversed(range(8)):
            sample = bootstrap_sample(tb, 30, sample_rng(11, tb.id, rep))
            values.append(ttr(sample))
        assert stats["ttr"].mean == pytest.approx(np.mean(values), abs=1e-12)
        assert stats["ttr"].stddev == pytest.approx(np.std(values), abs=1e-12)

    def test_unavailable_when_any_repetition_lacks_value(self):
        values = iter([1.0, None, 1.0, 1.0])
        fns = {"never": lambda s, rng: None, "once": lambda s, rng: next(values)}
        stats = run_repetitions(five_token_treebank(), fns, 5, 4, 0)
        for name in fns:
            assert not stats[name].available
            assert (stats[name].mean, stats[name].stddev) == (None, None)

    def test_measure_error_carries_repetition_index(self):
        def boom(sample, rng):
            raise RuntimeError("bad measure")

        with pytest.raises(MeasureError, match="repetition 0"):
            run_repetitions(five_token_treebank(), {"boom": boom}, 5, 3, 0)


class TestStreams:
    def test_measure_streams_are_independent_of_each_other(self):
        a = measure_rng(3, "tb", 0, "ws").uniform(size=4)
        b = measure_rng(3, "tb", 0, "other").uniform(size=4)
        assert not np.allclose(a, b)

    def test_streams_differ_across_treebanks(self):
        a = sample_rng(3, "tb1", 0).uniform(size=4)
        b = sample_rng(3, "tb2", 0).uniform(size=4)
        assert not np.allclose(a, b)


# Sample tokens whose serialization ws compresses on a helper thread.
LONG = 8000

# The ws step that fails on its second call: the distortion on the calling
# thread or the compression on the helper thread.  (An empty text, the one
# that compression_ratio rejects, is never long enough for the helper.)
FAILURES = [("distort", False), ("compression_ratio", True)]


def fail_on_second_call(fn, off_thread):
    """``fn``, except that the second of its calls made on this thread or,
    with ``off_thread``, on another thread raises ``RuntimeError``."""
    caller, calls = threading.get_ident(), []

    def patched(*args):
        if (threading.get_ident() != caller) == off_thread:
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("second call")
        return fn(*args)

    return patched


class TestWsHelperThread:
    """On a long text, ``ws`` compresses the original on a helper thread
    while the calling thread distorts the sample."""

    @pytest.mark.parametrize("tokens, helper", [(30, False), (LONG, True)])
    def test_only_a_long_original_text_is_compressed_off_the_calling_thread(
        self, monkeypatch, tokens, helper
    ):
        compress = measures.compression_ratio
        threads = []

        def recording(text):
            threads.append(threading.get_ident())
            return compress(text)

        monkeypatch.setattr(measures, "compression_ratio", recording)
        sample = bootstrap_sample(varied_treebank(), tokens, np.random.default_rng(0))
        assert (len(measures.serialize_sample(sample)) >= measures._OVERLAP_MIN_CHARS) == helper
        measures.word_structure_information(sample, np.random.default_rng(0))
        assert len(threads) == 2
        assert (threads[0] != threading.get_ident()) == helper
        assert threads[1] == threading.get_ident()

    @pytest.mark.parametrize("attr, off_thread", FAILURES, ids=["distort", "helper"])
    def test_failure_on_either_thread_names_ws_and_the_repetition(
        self, monkeypatch, attr, off_thread
    ):
        monkeypatch.setattr(measures, attr, fail_on_second_call(getattr(measures, attr), off_thread))
        fns = measures.sample_measure_functions(["ws"], is_count_values=False)
        expected = "measure 'ws' failed on repetition 1 of varied: RuntimeError: second call"
        with pytest.raises(MeasureError, match=f"^{re.escape(expected)}$"):
            run_repetitions(varied_treebank(), fns, LONG, 3, 0)

    @pytest.mark.parametrize(
        "attr, off_thread", [(None, None)] + FAILURES, ids=["ok", "distort", "helper"]
    )
    def test_no_thread_outlives_the_repetitions(self, monkeypatch, attr, off_thread):
        """A thread alive when the worker pool forks warns on Python >= 3.12."""
        if attr is not None:
            monkeypatch.setattr(
                measures, attr, fail_on_second_call(getattr(measures, attr), off_thread)
            )
        fns = measures.sample_measure_functions(["ws"], is_count_values=False)
        before = threading.active_count()
        with contextlib.nullcontext() if attr is None else pytest.raises(MeasureError):
            run_repetitions(varied_treebank(), fns, LONG, 3, 0)
        assert threading.active_count() == before
